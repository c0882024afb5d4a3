// Package dist implements the paper's syntactic distributivity check
// ds$x(·) (Figure 5): a conservative set of inference rules that certify a
// fixpoint body e as distributive in its recursion variable $x, i.e.
//
//	e(A ∪ B)  s=  e(A) ∪ e(B)   for all node sets A, B,
//
// where s= is set-equality (Section 3.1). A positive verdict licenses
// algorithm Delta (Theorem 3.2); a negative verdict is not a proof of
// non-distributivity — the algebraic ∪ push-up of Section 4 may still
// certify the body (see internal/algebra's CheckDistributive).
//
// The package also implements the §3.2 distributivity hint: Hint rewrites a
// body e into `for $y in $x return e[$y/$x]`, which rule FOR2 certifies.
// The rewrite is semantics-preserving exactly when e is in fact
// distributive; the caller asserts that.
package dist

import (
	"repro/internal/xq/ast"
)

// Result is one ds$x(·) verdict. Rule names the Figure 5 rule that
// certified the body, or carries the blocking reason when Safe is false.
type Result struct {
	Safe bool
	Rule string
}

// Resolver resolves user-defined function calls so the check can follow
// the recursion variable through call sites (the bidder network's
// bidder($x) pattern). A nil *ast.FuncDecl means "unknown function".
type Resolver func(name string, arity int) *ast.FuncDecl

// ModuleResolver builds a Resolver over a module's function declarations.
// A nil module yields a resolver that knows no functions (every call whose
// arguments mention $x is then rejected).
func ModuleResolver(m *ast.Module) Resolver {
	return func(name string, arity int) *ast.FuncDecl {
		if m == nil {
			return nil
		}
		return m.Function(name, arity)
	}
}

// Safe reports whether the Figure 5 rules certify e as distributive in $v.
func Safe(e ast.Expr, v string, resolve Resolver) bool {
	return Check(e, v, resolve).Safe
}

// Check runs the ds$x(·) rules on e with recursion variable $v.
func Check(e ast.Expr, v string, resolve Resolver) Result {
	// Node constructors mint fresh identities on every evaluation (ε in
	// Table 1), so e() ∪ e() is never identity-set-equal to e(): a body
	// that constructs nodes, itself or in any user-defined function it
	// reaches through calls, is rejected outright (§3.2).
	if where := constructorIn(e, "recursion body", resolve, map[*ast.FuncDecl]bool{}); where != "" {
		return unsafe("node constructor in " + where)
	}
	c := &checker{resolve: resolve, inProgress: map[funcKey]bool{}}
	return c.check(e, v)
}

// constructorIn names where a node constructor is reached from e: e itself
// (named where), or the first user-defined function holding one among
// those e calls, directly or transitively. It returns "" when there is
// none. seen holds the functions already searched, which ends cycles.
func constructorIn(e ast.Expr, where string, resolve Resolver, seen map[*ast.FuncDecl]bool) string {
	if ast.ContainsConstructor(e) {
		return where
	}
	found := ""
	ast.Walk(e, func(x ast.Expr) bool {
		if call, ok := x.(*ast.FuncCall); ok {
			if decl := resolve(call.Name, len(call.Args)); decl != nil && !seen[decl] {
				seen[decl] = true
				if where := constructorIn(decl.Body, call.Name+"()", resolve, seen); where != "" {
					found = where
				}
			}
		}
		return found == ""
	})
	return found
}

// funcKey guards against following cycles through recursive user functions.
type funcKey struct {
	name  string
	arity int
	param string
}

type checker struct {
	resolve    Resolver
	inProgress map[funcKey]bool
}

func unsafe(reason string) Result { return Result{Safe: false, Rule: reason} }
func safe(rule string) Result     { return Result{Safe: true, Rule: rule} }

// check derives ds$v(e) or fails with the blocking reason.
func (c *checker) check(e ast.Expr, v string) Result {
	if e == nil {
		return safe("CONST")
	}
	// CONST: an expression in which $v does not occur free is constant in
	// $v; constants are distributive under set semantics (e ∪ e s= e).
	if !ast.IsFree(e, v) {
		return safe("CONST")
	}
	switch x := e.(type) {
	case *ast.VarRef:
		// VAR: $v itself.
		return safe("VAR")
	case *ast.Seq:
		// SEQ: (e1, …, en) is set-equal to e1 ∪ … ∪ en over node
		// sequences; distributive when every item is.
		for _, it := range x.Items {
			if r := c.check(it, v); !r.Safe {
				return r
			}
		}
		return safe("SEQ")
	case *ast.Slash:
		// STEP: e1/e2 maps e2 over each context node of e1 individually,
		// so it distributes over e1 as long as e2 does not inspect $v.
		if ast.IsFree(x.R, v) {
			return unsafe("$" + v + " occurs on the right of '/' (evaluated against the whole set)")
		}
		if readsPosition(x.R) {
			return unsafe("position() or last() on the right of '/' observes the whole set")
		}
		if r := c.check(x.L, v); !r.Safe {
			return r
		}
		return safe("STEP")
	case *ast.Filter:
		// FILTER: E[p] keeps members of E individually. Sound only for
		// existential (boolean) predicates: a numeric predicate selects by
		// global position, which does not distribute.
		for _, p := range x.Preds {
			if ast.IsFree(p, v) {
				return unsafe("$" + v + " occurs inside a filter predicate")
			}
			if !existentialPred(p) || readsPosition(p) {
				return unsafe("filter predicate may be positional")
			}
		}
		if r := c.check(x.E, v); !r.Safe {
			return r
		}
		return safe("FILTER")
	case *ast.AxisStep:
		// $v free in an axis step can only sit in a predicate.
		return unsafe("$" + v + " occurs inside a step predicate")
	case *ast.Binary:
		switch x.Op {
		case ast.OpUnion:
			// UNION: (e1 ∪ e2)(A ∪ B) regroups into (e1 ∪ e2)(A) ∪ (e1 ∪ e2)(B).
			if r := c.check(x.L, v); !r.Safe {
				return r
			}
			if r := c.check(x.R, v); !r.Safe {
				return r
			}
			return safe("UNION")
		case ast.OpIntersect, ast.OpExcept:
			// EXCEPT/INTERSECT distribute over their LEFT operand:
			// (A ∪ B) \ C = (A \ C) ∪ (B \ C), likewise for ∩.
			if ast.IsFree(x.R, v) {
				return unsafe("$" + v + " occurs on the right of '" + x.Op.String() + "'")
			}
			if r := c.check(x.L, v); !r.Safe {
				return r
			}
			if x.Op == ast.OpExcept {
				return safe("EXCEPT")
			}
			return safe("INTERSECT")
		default:
			return unsafe("operator '" + x.Op.String() + "' inspects the value of $" + v)
		}
	case *ast.If:
		// IF: both branches must distribute and the condition must not
		// look at $v (count($x)-style guards are the Example 2.4 trap).
		if ast.IsFree(x.Cond, v) {
			return unsafe("if-condition inspects $" + v)
		}
		if r := c.check(x.Then, v); !r.Safe {
			return r
		}
		if r := c.check(x.Else, v); !r.Safe {
			return r
		}
		return safe("IF")
	case *ast.For:
		inFree := ast.IsFree(x.In, v)
		bodyFree := ast.IsFree(x.Body, v) ||
			(x.OrderBy != nil && ast.IsFree(x.OrderBy.Key, v))
		switch {
		case inFree && bodyFree:
			return unsafe("$" + v + " occurs in both the in-clause and the body of a for")
		case inFree:
			// FOR2: for $y in e1 return e2 with $v only in e1 — the loop
			// dismembers e1($v) into single nodes, so splitting $v splits
			// the bindings. A positional variable would observe the global
			// rank of each binding and break the argument.
			if x.Pos != "" {
				return unsafe("positional variable $" + x.Pos + " observes the whole binding sequence")
			}
			if r := c.check(x.In, v); !r.Safe {
				return r
			}
			return safe("FOR2")
		default:
			// FOR1: $v only in the return clause; the body must
			// distribute for each (fixed) binding.
			if r := c.check(x.Body, v); !r.Safe {
				return r
			}
			return safe("FOR1")
		}
	case *ast.Let:
		// LET: sound when the bound value is constant in $v.
		if ast.IsFree(x.Value, v) {
			return unsafe("let-bound value depends on $" + v)
		}
		if r := c.check(x.Body, v); !r.Safe {
			return r
		}
		return safe("LET")
	case *ast.Quantified:
		return unsafe("quantifier inspects $" + v)
	case *ast.TypeSwitch:
		return unsafe("typeswitch inspects $" + v)
	case *ast.Unary:
		return unsafe("arithmetic inspects the value of $" + v)
	case *ast.FuncCall:
		return c.checkCall(x, v)
	case *ast.Fixpoint:
		return unsafe("nested fixpoint over $" + v)
	}
	return unsafe("expression form not covered by the ds$x rules")
}

// checkCall follows $v through a user-defined function call: f(…, e, …) is
// distributive in $v when exactly one argument mentions $v, that argument
// is distributive, and f's body is distributive in the corresponding
// parameter (rule FUN). Built-ins taking $v are rejected — the rules do
// not know their semantics.
func (c *checker) checkCall(x *ast.FuncCall, v string) Result {
	hot := -1
	for i, a := range x.Args {
		if ast.IsFree(a, v) {
			if hot >= 0 {
				return unsafe("$" + v + " occurs in several arguments of " + x.Name + "()")
			}
			hot = i
		}
	}
	if hot < 0 {
		return safe("CONST")
	}
	decl := c.resolve(x.Name, len(x.Args))
	if decl == nil {
		return unsafe("function " + x.Name + "() is not distributivity-transparent")
	}
	if r := c.check(x.Args[hot], v); !r.Safe {
		return r
	}
	key := funcKey{name: x.Name, arity: len(x.Args), param: decl.Params[hot].Name}
	if c.inProgress[key] {
		return unsafe("recursive function " + x.Name + "() cannot be followed")
	}
	c.inProgress[key] = true
	r := c.check(decl.Body, decl.Params[hot].Name)
	delete(c.inProgress, key)
	if !r.Safe {
		return unsafe("body of " + x.Name + "(): " + r.Rule)
	}
	return safe("FUN")
}

// readsPosition reports whether e calls position() or last() against its
// own focus. Predicates and the right of a nested '/' have a focus of
// their own and are not searched.
func readsPosition(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		switch n := x.(type) {
		case *ast.FuncCall:
			found = found || len(n.Args) == 0 && (n.Name == "position" || n.Name == "last")
		case *ast.Slash:
			found = found || readsPosition(n.L)
			return false
		case *ast.Filter:
			found = found || readsPosition(n.E)
			return false
		case *ast.AxisStep:
			return false
		}
		return !found
	})
	return found
}

// existentialPred conservatively recognizes predicates with existential
// (effective-boolean-value over nodes, or comparison) semantics. Numeric
// predicates select by position and are rejected; anything the analysis
// cannot classify is rejected too.
func existentialPred(p ast.Expr) bool {
	switch x := p.(type) {
	case *ast.Slash, *ast.AxisStep, *ast.ContextItem, *ast.RootExpr:
		return true
	case *ast.Filter:
		return existentialPred(x.E)
	case *ast.Binary:
		if x.Op.IsComparison() || x.Op == ast.OpOr || x.Op == ast.OpAnd {
			return true
		}
		return false
	case *ast.Quantified:
		return true
	case *ast.FuncCall:
		switch x.Name {
		case "exists", "empty", "not", "boolean", "contains", "starts-with", "true", "false":
			return true
		}
		return false
	}
	return false
}

// Hint applies the §3.2 distributivity-hint rewriting: e becomes
//
//	for $y in $x return e[$y/$x]
//
// with $y fresh. The rewritten body is certified by rule FOR2; it is
// equivalent to e precisely when e was distributive in $x.
func Hint(e ast.Expr, v string) ast.Expr {
	y := freshVar(e, v)
	return &ast.For{
		Var:  y,
		In:   &ast.VarRef{Name: v},
		Body: ast.Substitute(e, v, &ast.VarRef{Name: y}),
	}
}

// freshVar picks a variable name unused anywhere in e (free or bound), so
// the substitution in Hint cannot capture.
func freshVar(e ast.Expr, v string) string {
	used := map[string]bool{v: true}
	ast.Walk(e, func(x ast.Expr) bool {
		switch n := x.(type) {
		case *ast.VarRef:
			used[n.Name] = true
		case *ast.For:
			used[n.Var] = true
			if n.Pos != "" {
				used[n.Pos] = true
			}
		case *ast.Let:
			used[n.Var] = true
		case *ast.Quantified:
			used[n.Var] = true
		case *ast.TypeSwitch:
			for _, c := range n.Cases {
				if c.Var != "" {
					used[c.Var] = true
				}
			}
			if n.DefaultVar != "" {
				used[n.DefaultVar] = true
			}
		case *ast.Fixpoint:
			used[n.Var] = true
		}
		return true
	})
	if !used["y"] {
		return "y"
	}
	for i := 2; ; i++ {
		name := "y" + itoa(i)
		if !used[name] {
			return name
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
