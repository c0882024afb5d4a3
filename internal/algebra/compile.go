package algebra

import (
	"fmt"
	"maps"

	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// UnsupportedError reports an XQuery construct the relational back-end does
// not compile (callers typically fall back to the direct interpreter, the
// way heterogeneous deployments would pick a processor per query).
type UnsupportedError struct{ What string }

func (e *UnsupportedError) Error() string {
	return "algebra: unsupported in relational backend: " + e.What
}

func unsupported(format string, args ...any) error {
	return &UnsupportedError{What: fmt.Sprintf(format, args...)}
}

// Plan is a compiled module: the root operator plus every µ site in
// evaluation order, each carrying its algebraic distributivity verdict.
type Plan struct {
	// Root is the plan the executor runs. CompileModule emits the verbatim
	// loop-lifting translation; the optimizer CompilePlan takes as its
	// optimize argument (internal/algebra/opt) may replace it with a
	// rewritten DAG.
	Root *Node
	// Raw is the pre-optimization root, kept for explain output and
	// raw-vs-optimized diagnostics. Root == Raw until an optimizer runs.
	Raw *Node
	Mus []*MuSite
}

// MuSite describes one compiled fixpoint.
type MuSite struct {
	Mu *Node
	// Fixpoint is the query's own site this µ compiles: an inlined
	// function compiles a copy of its body, so each call's µ names the
	// declaration's site.
	Fixpoint        *ast.Fixpoint
	Distributive    bool // strict Table 1 push-up verdict
	DistributiveExt bool // extended verdict (left-of-\ pushes, §6 remark)
	// IterationFree marks a body that reads nothing but its recursion
	// variable and prolog globals — no other variable and not the outer
	// focus — so e({n}) is the same in every iteration of the enclosing
	// loop. Such a body is compiled against Mu.Keys (see compileFixpoint).
	IterationFree bool
}

// CompileModule lowers a parsed module to a relational plan. Loop-lifting
// follows the Relational XQuery translation of [15]: every expression
// compiles to an iter|pos|item relation relative to a loop relation of
// live iterations.
func CompileModule(m *ast.Module) (*Plan, error) {
	c := &compiler{module: m, hoisted: map[ast.Expr]*Node{}, globals: map[string]*Node{}}
	loop := NewLit([]string{"iter"}, [][]xdm.Item{{xdm.NewInteger(1)}})
	env := cenv{vars: map[string]*Node{}}
	for _, v := range m.Vars {
		p, err := c.compile(v.Value, loop, env)
		if err != nil {
			return nil, err
		}
		env.vars[v.Name] = p // a global, not a local binding
		c.globals[v.Name] = p
	}
	c.topLoop = loop
	c.topEnv = env
	root, err := c.compile(m.Body, loop, env)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: root, Raw: root, Mus: c.mus}, nil
}

type compiler struct {
	module      *ast.Module
	mus         []*MuSite
	inlineDepth int
	topLoop     *Node
	topEnv      cenv
	hoisted     map[ast.Expr]*Node
	globals     map[string]*Node // prolog globals, compiled in the top loop
	// origin maps each fixpoint of an inlined copy to its declaration's;
	// nil until a call is inlined.
	origin map[*ast.Fixpoint]*ast.Fixpoint
}

// isInvariant reports whether an expression's value is the same in every
// iteration of any loop: all free variables are prolog globals, no context
// dependence, no constructors (fresh identities), no user function calls
// (conservative), no fixpoints. Such subexpressions are compiled once in
// the top loop and crossed into inner iteration spaces — the classic
// loop-invariant hoisting Pathfinder performs as a plan rewrite.
func (c *compiler) isInvariant(e ast.Expr, env cenv) bool {
	return !usesContextFreely(e) && c.readsGlobalsOnly(e, env, "") && c.plain(e)
}

// readsFocusAndGlobals reports whether e's value per context item is the
// same in every iteration of any loop: like isInvariant, except that e may
// read the context item (not its position or size).
func (c *compiler) readsFocusAndGlobals(e ast.Expr, env cenv) bool {
	return c.readsGlobalsOnly(e, env, "") && c.plain(e) && !calls(e, "position", "last")
}

// plain reports whether e contains no fixpoint, no node constructor (fresh
// identities) and no call of a user function (conservative: its body may
// hold either).
func (c *compiler) plain(e ast.Expr) bool {
	ok := true
	ast.Walk(e, func(x ast.Expr) bool {
		switch v := x.(type) {
		case *ast.Fixpoint, *ast.ElemCtor, *ast.AttrCtor, *ast.TextCtor:
			ok = false
		case *ast.FuncCall:
			if c.module.Function(v.Name, len(v.Args)) != nil {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// readsGlobalsOnly reports whether every free variable of e other than
// except is a prolog global that env does not shadow.
func (c *compiler) readsGlobalsOnly(e ast.Expr, env cenv, except string) bool {
	for v := range ast.FreeVars(e) {
		if v != except && (c.globals[v] == nil || env.local[v]) {
			return false
		}
	}
	return true
}

// globalEnv binds every prolog global in loop's iteration space.
func (c *compiler) globalEnv(loop *Node) cenv {
	env := cenv{vars: make(map[string]*Node, len(c.globals))}
	for name, g := range c.globals {
		env.vars[name] = &Node{Op: OpCross, Kids: []*Node{loop, Project(g, pp("pos", "pos"), pp("item", "item"))}}
	}
	return env
}

// usesContextFreely reports whether e consumes the *outer* dynamic context
// (context item, position, size). A slash's right-hand side and a filter's
// predicates receive their context from within the expression, so only the
// leftmost position counts.
func usesContextFreely(e ast.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ast.ContextItem, *ast.RootExpr, *ast.AxisStep:
		return true
	case *ast.Slash:
		return usesContextFreely(x.L)
	case *ast.Filter:
		return usesContextFreely(x.E)
	case *ast.FuncCall:
		switch x.Name {
		case "position", "last":
			return true
		case "string", "number", "name", "local-name", "root", "string-length", "normalize-space":
			if len(x.Args) == 0 {
				return true
			}
		case "id":
			if len(x.Args) < 2 {
				return true // target document comes from the context node
			}
		}
		for _, a := range x.Args {
			if usesContextFreely(a) {
				return true
			}
		}
		return false
	default:
		for _, kid := range ast.Children(e) {
			if usesContextFreely(kid) {
				return true
			}
		}
		return false
	}
}

// cenv is the compile-time environment: variable plans (iter|pos|item),
// the names bound locally (every variable but the prolog globals), and
// the context item/position/size plans (iter|item).
type cenv struct {
	vars  map[string]*Node
	local map[string]bool
	dot   *Node
	pos   *Node
	last  *Node
}

func (e cenv) bind(name string, p *Node) cenv {
	out := e
	out.vars, out.local = maps.Clone(e.vars), maps.Clone(e.local)
	if out.local == nil {
		out.local = map[string]bool{}
	}
	out.vars[name], out.local[name] = p, true
	return out
}

// ---- small plan-construction helpers ------------------------------------

// Project builds π_pairs(kid). It is the one π constructor, for the
// compiler and the optimizer alike: a π over a π becomes one π over the
// inner π's input, and a π that reproduces its input's schema column for
// column is its input. No plan either builds holds π∘π or an identity π.
func Project(kid *Node, pairs ...ProjPair) *Node {
	if kid.Op == OpProject {
		composed := make([]ProjPair, len(pairs))
		for i, p := range pairs {
			in, _ := kid.ProjIn(p.In)
			composed[i] = ProjPair{Out: p.Out, In: in}
		}
		kid, pairs = kid.Kids[0], composed
	}
	schema := kid.Schema()
	identity := len(pairs) == len(schema)
	for i := 0; identity && i < len(pairs); i++ {
		identity = pairs[i].Out == schema[i] && pairs[i].In == schema[i]
	}
	if identity {
		return kid
	}
	return &Node{Op: OpProject, Kids: []*Node{kid}, Proj: pairs}
}

// ProjIn maps an output column of the π n to the input column it reads.
func (n *Node) ProjIn(out string) (string, bool) {
	for _, p := range n.Proj {
		if p.Out == out {
			return p.In, true
		}
	}
	return "", false
}

func pp(out, in string) ProjPair { return ProjPair{Out: out, In: in} }

func attach(kid *Node, col string, val xdm.Item) *Node {
	return &Node{Op: OpAttach, Kids: []*Node{kid}, Col: col, Val: val}
}

func join(l, r *Node, preds ...JoinPred) *Node {
	return &Node{Op: OpJoin, Kids: []*Node{l, r}, Preds: preds}
}

func semijoin(l, r *Node, preds ...JoinPred) *Node {
	return &Node{Op: OpSemiJoin, Kids: []*Node{l, r}, Preds: preds}
}

func antijoin(l, r *Node, preds ...JoinPred) *Node {
	return &Node{Op: OpAntiJoin, Kids: []*Node{l, r}, Preds: preds}
}

func union(l, r *Node) *Node { return &Node{Op: OpUnion, Kids: []*Node{l, r}} }

func distinct(kid *Node) *Node { return &Node{Op: OpDistinct, Kids: []*Node{kid}} }

func numop(kid *Node, out string, kind NumKind, args ...string) *Node {
	return &Node{Op: OpNumOp, Kids: []*Node{kid}, Col: out, Num: kind, NumArgs: args}
}

func sel(kid *Node, col string) *Node {
	return &Node{Op: OpSelect, Kids: []*Node{kid}, Col: col}
}

func rowtag(kid *Node, col string) *Node {
	return &Node{Op: OpRowTag, Kids: []*Node{kid}, Col: col}
}

func rownum(kid *Node, col string, sortCols, groupCols []string) *Node {
	return &Node{Op: OpRowNum, Kids: []*Node{kid}, Col: col, SortCols: sortCols, GroupCols: groupCols}
}

// ddoNodes implements fs:ddo on a plan: distinct over (iter,item), pos =
// document-order rank. Both operators are order/duplicate bookkeeping in
// the §4.1 sense.
func ddoNodes(q *Node) *Node {
	d := distinct(Project(q, pp("iter", "iter"), pp("item", "item")))
	d.Bookkeeping = true
	rn := rownum(d, "pos", []string{"item"}, []string{"iter"})
	rn.Bookkeeping = true
	return Project(rn, pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"))
}

// iters projects a plan to its distinct iterations.
func iters(q *Node) *Node {
	d := distinct(Project(q, pp("iter", "iter")))
	d.Template = true // ⋉-macro internals: set-level, transparent to ∪ push
	return d
}

// constSeq attaches pos=1,item=v to the loop.
func constSeq(loop *Node, v xdm.Item) *Node {
	return attach(attach(loop, "pos", xdm.NewInteger(1)), "item", v)
}

// ---- the main translation ------------------------------------------------

func (c *compiler) compile(e ast.Expr, loop *Node, env cenv) (*Node, error) {
	switch n := e.(type) {
	case *ast.Literal:
		switch n.Kind {
		case ast.LitInteger:
			return constSeq(loop, xdm.NewInteger(n.Int)), nil
		case ast.LitDouble:
			return constSeq(loop, xdm.NewDouble(n.Float)), nil
		default:
			return constSeq(loop, xdm.NewString(n.Str)), nil
		}
	case *ast.VarRef:
		p, ok := env.vars[n.Name]
		if !ok {
			return nil, xdm.Errorf(xdm.ErrUndefVar, "undefined variable $%s", n.Name)
		}
		return p, nil
	case *ast.ContextItem:
		if env.dot == nil {
			return nil, xdm.NewError(xdm.ErrCtxItem, "context item is undefined")
		}
		return attach(env.dot, "pos", xdm.NewInteger(1)), nil
	case *ast.RootExpr:
		if env.dot == nil {
			return nil, xdm.NewError(xdm.ErrCtxItem, "context item is undefined for '/'")
		}
		r := numop(env.dot, "root", NumRootOf, "item")
		return attach(Project(r, pp("iter", "iter"), pp("item", "root")), "pos", xdm.NewInteger(1)), nil
	case *ast.Seq:
		return c.compileSeq(n, loop, env)
	case *ast.For:
		return c.compileFor(n, loop, env)
	case *ast.Let:
		v, err := c.compile(n.Value, loop, env)
		if err != nil {
			return nil, err
		}
		return c.compile(n.Body, loop, env.bind(n.Var, v))
	case *ast.If:
		return c.compileIf(n, loop, env)
	case *ast.Binary:
		return c.compileBinary(n, loop, env)
	case *ast.Unary:
		v, err := c.compile(n.E, loop, env)
		if err != nil {
			return nil, err
		}
		neg := numop(v, "res", NumNeg, "item")
		return Project(neg, pp("iter", "iter"), pp("pos", "pos"), pp("item", "res")), nil
	case *ast.Slash:
		return c.compileSlash(n, loop, env)
	case *ast.AxisStep:
		return c.compileAxisStep(n, loop, env)
	case *ast.Filter:
		base, err := c.compile(n.E, loop, env)
		if err != nil {
			return nil, err
		}
		// Predicates over a general primary rank the sequence itself —
		// semantic ϱ, not a step template (the $x[1] case of §3.1).
		return c.compilePreds(base, n.Preds, 0, []string{"iter"}, env, false)
	case *ast.FuncCall:
		return c.compileCall(n, loop, env)
	case *ast.Fixpoint:
		return c.compileFixpoint(n, loop, env)
	case *ast.Quantified:
		return c.compileQuantified(n, loop, env)
	case *ast.ElemCtor:
		return c.compileElemCtor(n, loop, env)
	case *ast.AttrCtor:
		return c.compileAttrCtor(n, loop, env)
	case *ast.TextCtor:
		content, err := c.compile(n.Content, loop, env)
		if err != nil {
			return nil, err
		}
		atom := numop(content, "a", NumAtomize, "item")
		content = Project(atom, pp("iter", "iter"), pp("pos", "pos"), pp("item", "a"))
		return &Node{Op: OpCtor, Ctor: CtorText, Kids: []*Node{loop, content}}, nil
	case *ast.TypeSwitch:
		return nil, unsupported("typeswitch")
	}
	return nil, unsupported("%T", e)
}

func (c *compiler) compileSeq(n *ast.Seq, loop *Node, env cenv) (*Node, error) {
	if len(n.Items) == 0 {
		return NewLit([]string{"iter", "pos", "item"}, nil), nil
	}
	out, err := c.compile(n.Items[0], loop, env)
	if err != nil {
		return nil, err
	}
	if len(n.Items) == 1 {
		return out, nil
	}
	acc := attach(out, "ord", xdm.NewInteger(0))
	for i, item := range n.Items[1:] {
		q, err := c.compile(item, loop, env)
		if err != nil {
			return nil, err
		}
		acc = union(acc, attach(q, "ord", xdm.NewInteger(int64(i+1))))
	}
	rn := rownum(acc, "npos", []string{"ord", "pos"}, []string{"iter"})
	rn.Bookkeeping = true
	return Project(rn, pp("iter", "iter"), pp("pos", "npos"), pp("item", "item")), nil
}

// compileFor is the loop-lifting core: each binding of $v becomes one inner
// iteration; outer variables (and the context) are lifted through the
// iteration map; the body's results are mapped back and renumbered.
func (c *compiler) compileFor(n *ast.For, loop *Node, env cenv) (*Node, error) {
	if n.OrderBy != nil {
		return nil, unsupported("order by")
	}
	q1, err := c.compile(n.In, loop, env)
	if err != nil {
		return nil, err
	}
	mapT := rowtag(q1, "inner") // iter|pos|item|inner
	innerLoop := Project(mapT, pp("iter", "inner"))
	lifted := c.liftEnv(env, mapT)
	vPlan := attach(Project(mapT, pp("iter", "inner"), pp("item", "item")), "pos", xdm.NewInteger(1))
	lifted = lifted.bind(n.Var, vPlan)
	if n.Pos != "" {
		rank := rownum(mapT, "atpos", []string{"pos"}, []string{"iter"})
		pPlan := attach(Project(rank, pp("iter", "inner"), pp("item", "atpos")), "pos", xdm.NewInteger(1))
		lifted = lifted.bind(n.Pos, pPlan)
	}
	body, err := c.compile(n.Body, innerLoop, lifted)
	if err != nil {
		return nil, err
	}
	back := Project(mapT, pp("outer", "iter"), pp("in2", "inner"), pp("bpos", "pos"))
	joined := join(body, back, JoinPred{L: "iter", R: "in2", Cmp: NumEq})
	rn := rownum(joined, "npos", []string{"bpos", "pos"}, []string{"outer"})
	rn.Bookkeeping = true
	return Project(rn, pp("iter", "outer"), pp("pos", "npos"), pp("item", "item")), nil
}

// liftEnv maps every environment plan from the outer iteration space into
// the inner one defined by mapT's inner column.
func (c *compiler) liftEnv(env cenv, mapT *Node) cenv {
	mapping := Project(mapT, pp("outer", "iter"), pp("inner", "inner"))
	lift := func(p *Node) *Node {
		if p == nil {
			return nil
		}
		j := join(p, mapping, JoinPred{L: "iter", R: "outer", Cmp: NumEq})
		cols := []ProjPair{pp("iter", "inner"), pp("item", "item")}
		if p.HasCol("pos") {
			cols = append(cols, pp("pos", "pos"))
		}
		return Project(j, cols...)
	}
	out := cenv{vars: make(map[string]*Node, len(env.vars)), local: env.local}
	for k, v := range env.vars {
		out.vars[k] = lift(v)
	}
	out.dot = lift(env.dot)
	out.pos = lift(env.pos)
	out.last = lift(env.last)
	return out
}

// compileCondition compiles a boolean-context expression to the relation
// of iterations whose effective boolean value is true. Conditions compile
// to semijoin-shaped plans (no false-fill), which is what keeps
// where-clauses transparent to the ∪ push-up of the algebraic
// distributivity check: ⋉ admits the push (distcheck.go, Table 1), while a
// false-fill would need the difference operator, which blocks it.
func (c *compiler) compileCondition(e ast.Expr, loop *Node, env cenv) (*Node, error) {
	switch n := e.(type) {
	case *ast.Binary:
		switch n.Op {
		case ast.OpAnd:
			l, err := c.compileCondition(n.L, loop, env)
			if err != nil {
				return nil, err
			}
			r, err := c.compileCondition(n.R, loop, env)
			if err != nil {
				return nil, err
			}
			return semijoin(l, r, JoinPred{L: "iter", R: "iter", Cmp: NumEq}), nil
		case ast.OpOr:
			l, err := c.compileCondition(n.L, loop, env)
			if err != nil {
				return nil, err
			}
			r, err := c.compileCondition(n.R, loop, env)
			if err != nil {
				return nil, err
			}
			return iters(union(l, r)), nil
		}
		if n.Op.IsComparison() {
			return c.compileComparisonIters(n, loop, env)
		}
	case *ast.FuncCall:
		switch n.Name {
		case "exists", "boolean":
			if len(n.Args) == 1 {
				q, err := c.compile(n.Args[0], loop, env)
				if err != nil {
					return nil, err
				}
				if n.Name == "exists" {
					return iters(q), nil
				}
			}
		case "not", "empty":
			if len(n.Args) == 1 {
				var inner *Node
				var err error
				if n.Name == "empty" {
					q, qerr := c.compile(n.Args[0], loop, env)
					if qerr != nil {
						return nil, qerr
					}
					inner = iters(q)
				} else {
					inner, err = c.compileCondition(n.Args[0], loop, env)
					if err != nil {
						return nil, err
					}
				}
				return antijoin(loop, inner, JoinPred{L: "iter", R: "iter", Cmp: NumEq}), nil
			}
		case "true":
			return loop, nil
		case "false":
			return NewLit([]string{"iter"}, nil), nil
		}
	}
	// Generic effective boolean value: iterations owning a truthy item.
	q, err := c.compile(e, loop, env)
	if err != nil {
		return nil, err
	}
	t := numop(q, "t", NumTruthy, "item")
	return iters(sel(t, "t")), nil
}

// atomized applies fn:data to a plan's item column, keeping the schema.
func atomized(q *Node) *Node {
	a := numop(q, "atm", NumAtomize, "item")
	return Project(a, pp("iter", "iter"), pp("pos", "pos"), pp("item", "atm"))
}

// compileComparisonIters lowers a general/value/node comparison used as a
// condition into the relation of satisfied iterations: a join on iter plus
// the item predicate — the paper's existential semantics, ⋉-shaped.
// General and value comparisons atomize their operands; node comparisons
// (is, <<, >>) do not.
func (c *compiler) compileComparisonIters(n *ast.Binary, loop *Node, env cenv) (*Node, error) {
	l, err := c.compile(n.L, loop, env)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(n.R, loop, env)
	if err != nil {
		return nil, err
	}
	cmp, err := cmpKind(n.Op)
	if err != nil {
		return nil, err
	}
	if cmp != NumIs && cmp != NumPrecedes && cmp != NumFollows {
		l, r = atomized(l), atomized(r)
	}
	r = Project(r, pp("riter", "iter"), pp("ritem", "item"))
	matched := join(l, r,
		JoinPred{L: "iter", R: "riter", Cmp: NumEq},
		JoinPred{L: "item", R: "ritem", Cmp: cmp})
	return iters(matched), nil
}

func cmpKind(op ast.BinOp) (NumKind, error) {
	switch op {
	case ast.OpGenEq, ast.OpValEq:
		return NumEq, nil
	case ast.OpGenNe, ast.OpValNe:
		return NumNe, nil
	case ast.OpGenLt, ast.OpValLt:
		return NumLt, nil
	case ast.OpGenLe, ast.OpValLe:
		return NumLe, nil
	case ast.OpGenGt, ast.OpValGt:
		return NumGt, nil
	case ast.OpGenGe, ast.OpValGe:
		return NumGe, nil
	case ast.OpIs:
		return NumIs, nil
	case ast.OpPrecedes:
		return NumPrecedes, nil
	case ast.OpFollows:
		return NumFollows, nil
	}
	return 0, unsupported("comparison %s", op)
}

func (c *compiler) compileIf(n *ast.If, loop *Node, env cenv) (*Node, error) {
	condIters, err := c.compileCondition(n.Cond, loop, env)
	if err != nil {
		return nil, err
	}
	thenPlan, err := c.compile(n.Then, loop, env)
	if err != nil {
		return nil, err
	}
	onIter := JoinPred{L: "iter", R: "iter", Cmp: NumEq}
	thenRes := semijoin(thenPlan, condIters, onIter)
	if isEmptySeq(n.Else) {
		// Where-clause shape: no false branch, no difference operator.
		return thenRes, nil
	}
	elsePlan, err := c.compile(n.Else, loop, env)
	if err != nil {
		return nil, err
	}
	elseIters := antijoin(loop, condIters, onIter)
	return union(thenRes, semijoin(elsePlan, elseIters, onIter)), nil
}

func isEmptySeq(e ast.Expr) bool {
	s, ok := e.(*ast.Seq)
	return ok && len(s.Items) == 0
}

// boolify turns a condition-iteration relation into a boolean singleton
// per iteration (value context for comparisons, fn:boolean, etc.).
func boolify(loop, condIters *Node) *Node {
	onIter := JoinPred{L: "iter", R: "iter", Cmp: NumEq}
	t := attach(semijoin(loop, condIters, onIter), "item", xdm.NewBoolean(true))
	f := attach(antijoin(loop, condIters, onIter), "item", xdm.NewBoolean(false))
	return attach(union(t, f), "pos", xdm.NewInteger(1))
}

func (c *compiler) compileBinary(n *ast.Binary, loop *Node, env cenv) (*Node, error) {
	switch n.Op {
	case ast.OpAnd, ast.OpOr:
		ci, err := c.compileCondition(n, loop, env)
		if err != nil {
			return nil, err
		}
		return boolify(loop, ci), nil
	case ast.OpUnion:
		l, err := c.compile(n.L, loop, env)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R, loop, env)
		if err != nil {
			return nil, err
		}
		return ddoNodes(union(l, r)), nil
	case ast.OpIntersect:
		l, err := c.compile(n.L, loop, env)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R, loop, env)
		if err != nil {
			return nil, err
		}
		r = Project(r, pp("riter", "iter"), pp("ritem", "item"))
		kept := semijoin(l, r,
			JoinPred{L: "iter", R: "riter", Cmp: NumEq},
			JoinPred{L: "item", R: "ritem", Cmp: NumIs})
		return ddoNodes(kept), nil
	case ast.OpExcept:
		l, err := c.compile(n.L, loop, env)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R, loop, env)
		if err != nil {
			return nil, err
		}
		lp := distinct(Project(l, pp("iter", "iter"), pp("item", "item")))
		rp := distinct(Project(r, pp("iter", "iter"), pp("item", "item")))
		// Node-set dedup around the difference is duplicate bookkeeping in
		// the §4.1 sense; the difference operator proper is what Table 1
		// marks non-pushable (strict) / left-pushable (extended, §6).
		lp.Bookkeeping = true
		rp.Bookkeeping = true
		diff := &Node{Op: OpDiff, Kids: []*Node{lp, rp}}
		return ddoNodes(diff), nil
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpIDiv, ast.OpMod:
		l, err := c.compile(n.L, loop, env)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R, loop, env)
		if err != nil {
			return nil, err
		}
		r = Project(r, pp("riter", "iter"), pp("ritem", "item"))
		j := join(l, r, JoinPred{L: "iter", R: "riter", Cmp: NumEq})
		kind := map[ast.BinOp]NumKind{
			ast.OpAdd: NumAdd, ast.OpSub: NumSub, ast.OpMul: NumMul,
			ast.OpDiv: NumDiv, ast.OpIDiv: NumIDiv, ast.OpMod: NumMod,
		}[n.Op]
		res := numop(j, "res", kind, "item", "ritem")
		return attach(Project(res, pp("iter", "iter"), pp("item", "res")), "pos", xdm.NewInteger(1)), nil
	case ast.OpTo:
		return nil, unsupported("range expression 'to'")
	}
	if n.Op.IsComparison() {
		ci, err := c.compileComparisonIters(n, loop, env)
		if err != nil {
			return nil, err
		}
		return boolify(loop, ci), nil
	}
	return nil, unsupported("operator %s", n.Op)
}

func (c *compiler) compileQuantified(n *ast.Quantified, loop *Node, env cenv) (*Node, error) {
	// some $v in e satisfies c  ≡  exists(for $v in e return boolean-true rows)
	// every ≡ not(some not).
	inner := &ast.For{Var: n.Var, In: n.In,
		Body: &ast.If{Cond: n.Cond, Then: &ast.Literal{Kind: ast.LitInteger, Int: 1}, Else: &ast.Seq{}}}
	if n.Every {
		inner.Body = &ast.If{Cond: n.Cond, Then: &ast.Seq{}, Else: &ast.Literal{Kind: ast.LitInteger, Int: 1}}
	}
	q, err := c.compileFor(inner, loop, env)
	if err != nil {
		return nil, err
	}
	ci := iters(q)
	if n.Every {
		ci = antijoin(loop, ci, JoinPred{L: "iter", R: "iter", Cmp: NumEq})
	}
	return boolify(loop, ci), nil
}
