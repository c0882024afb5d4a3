package ast

// FreeVars returns fv(e), the set of free variables of an expression, as
// used by the paper's distributivity rules (Figure 5). Binding constructs
// are For (Var, Pos), Let, Quantified, TypeSwitch case/default variables,
// and Fixpoint (its recursion variable is bound in the body).
func FreeVars(e Expr) map[string]bool {
	out := make(map[string]bool)
	collectFree(e, map[string]bool{}, out)
	return out
}

// IsFree reports whether $name occurs free in e.
func IsFree(e Expr, name string) bool { return FreeVars(e)[name] }

func collectFree(e Expr, bound map[string]bool, out map[string]bool) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *Literal, *ContextItem, *RootExpr:
	case *VarRef:
		if !bound[x.Name] {
			out[x.Name] = true
		}
	case *Seq:
		for _, it := range x.Items {
			collectFree(it, bound, out)
		}
	case *For:
		collectFree(x.In, bound, out)
		inner := withBound(bound, x.Var, x.Pos)
		if x.OrderBy != nil {
			collectFree(x.OrderBy.Key, inner, out)
		}
		collectFree(x.Body, inner, out)
	case *Let:
		collectFree(x.Value, bound, out)
		collectFree(x.Body, withBound(bound, x.Var), out)
	case *Quantified:
		collectFree(x.In, bound, out)
		collectFree(x.Cond, withBound(bound, x.Var), out)
	case *If:
		collectFree(x.Cond, bound, out)
		collectFree(x.Then, bound, out)
		collectFree(x.Else, bound, out)
	case *Binary:
		collectFree(x.L, bound, out)
		collectFree(x.R, bound, out)
	case *Unary:
		collectFree(x.E, bound, out)
	case *Slash:
		collectFree(x.L, bound, out)
		collectFree(x.R, bound, out)
	case *AxisStep:
		for _, p := range x.Preds {
			collectFree(p, bound, out)
		}
	case *Filter:
		collectFree(x.E, bound, out)
		for _, p := range x.Preds {
			collectFree(p, bound, out)
		}
	case *FuncCall:
		for _, a := range x.Args {
			collectFree(a, bound, out)
		}
	case *ElemCtor:
		collectFree(x.NameExpr, bound, out)
		for _, a := range x.Attrs {
			collectFree(a, bound, out)
		}
		for _, c := range x.Content {
			collectFree(c, bound, out)
		}
	case *AttrCtor:
		collectFree(x.NameExpr, bound, out)
		for _, c := range x.Content {
			collectFree(c, bound, out)
		}
	case *TextCtor:
		collectFree(x.Content, bound, out)
	case *TypeSwitch:
		collectFree(x.Operand, bound, out)
		for _, c := range x.Cases {
			collectFree(c.Body, withBound(bound, c.Var), out)
		}
		collectFree(x.Default, withBound(bound, x.DefaultVar), out)
	case *Fixpoint:
		collectFree(x.Seed, bound, out)
		collectFree(x.Body, withBound(bound, x.Var), out)
	}
}

func withBound(bound map[string]bool, names ...string) map[string]bool {
	need := false
	for _, n := range names {
		if n != "" && !bound[n] {
			need = true
		}
	}
	if !need {
		return bound
	}
	out := make(map[string]bool, len(bound)+len(names))
	for k := range bound {
		out[k] = true
	}
	for _, n := range names {
		if n != "" {
			out[n] = true
		}
	}
	return out
}

// Children returns the direct sub-expressions of e, for generic traversal.
func Children(e Expr) []Expr {
	switch x := e.(type) {
	case *Seq:
		return x.Items
	case *For:
		if x.OrderBy != nil {
			return []Expr{x.In, x.OrderBy.Key, x.Body}
		}
		return []Expr{x.In, x.Body}
	case *Let:
		return []Expr{x.Value, x.Body}
	case *Quantified:
		return []Expr{x.In, x.Cond}
	case *If:
		return []Expr{x.Cond, x.Then, x.Else}
	case *Binary:
		return []Expr{x.L, x.R}
	case *Unary:
		return []Expr{x.E}
	case *Slash:
		return []Expr{x.L, x.R}
	case *AxisStep:
		return x.Preds
	case *Filter:
		return append([]Expr{x.E}, x.Preds...)
	case *FuncCall:
		return x.Args
	case *ElemCtor:
		var out []Expr
		if x.NameExpr != nil {
			out = append(out, x.NameExpr)
		}
		for _, a := range x.Attrs {
			out = append(out, a)
		}
		return append(out, x.Content...)
	case *AttrCtor:
		var out []Expr
		if x.NameExpr != nil {
			out = append(out, x.NameExpr)
		}
		return append(out, x.Content...)
	case *TextCtor:
		return []Expr{x.Content}
	case *TypeSwitch:
		out := []Expr{x.Operand}
		for _, c := range x.Cases {
			out = append(out, c.Body)
		}
		return append(out, x.Default)
	case *Fixpoint:
		return []Expr{x.Seed, x.Body}
	}
	return nil
}

// Walk calls fn on e and every descendant expression, pre-order. Walking
// stops inside a subtree when fn returns false for its root.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	for _, c := range Children(e) {
		Walk(c, fn)
	}
}

// ContainsConstructor reports whether e (or any function it syntactically
// contains — callers must expand functions themselves) contains a node
// constructor, which rules out distributivity (§3.2) and can make the IFP
// undefined (Definition 2.1).
func ContainsConstructor(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		switch x.(type) {
		case *ElemCtor, *AttrCtor, *TextCtor:
			found = true
		}
		return !found
	})
	return found
}

// ContextFree reports whether evaluating e can never observe the outer
// context item, position, or size — a path rooted at a variable or
// literal, however it continues: steps, predicates, and positional
// functions to the right of the root draw their context from the path's
// own intermediate results. Conservative: anything unrecognized counts
// as context-dependent. A predicate operand that is context-free has one
// value for every candidate, so both engines evaluate it once per
// predicate application rather than once per candidate.
func ContextFree(e Expr) bool {
	switch x := e.(type) {
	case *Literal, *VarRef:
		return true
	case *Seq:
		for _, it := range x.Items {
			if !ContextFree(it) {
				return false
			}
		}
		return true
	case *Slash:
		return ContextFree(x.L)
	case *Filter:
		return ContextFree(x.E)
	}
	return false
}

// Fixpoints lists the fixpoint sites in e, pre-order.
func Fixpoints(e Expr) []*Fixpoint {
	var out []*Fixpoint
	Walk(e, func(x Expr) bool {
		if fp, ok := x.(*Fixpoint); ok {
			out = append(out, fp)
		}
		return true
	})
	return out
}

// Substitute returns e with every free occurrence of $name replaced by a
// fresh copy of repl — the paper's e1[e2/$x] notation. The input is not
// modified.
func Substitute(e Expr, name string, repl Expr) Expr {
	return subst(e, name, repl, map[string]bool{})
}

func subst(e Expr, name string, repl Expr, bound map[string]bool) Expr {
	if v, ok := e.(*VarRef); ok && v.Name == name && !bound[name] {
		return Copy(repl)
	}
	return rebuild(e, func(k Expr, binders ...string) Expr {
		return subst(k, name, repl, withBound(bound, binders...))
	})
}

// Rewrite returns a copy of e rebuilt bottom-up: each node is copied with
// its rewritten sub-expressions and then handed to fn, whose result takes
// its place. fn may return its argument, and may modify it unless it is a
// leaf (literal, variable, context item, root): leaves are shared, every
// other node fn sees is a fresh copy. fn must map an attribute constructor
// to an attribute constructor.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	return fn(rebuild(e, func(k Expr, _ ...string) Expr { return Rewrite(k, fn) }))
}

// Copy deep-copies an expression tree; leaves are immutable and shared.
func Copy(e Expr) Expr {
	return Rewrite(e, func(x Expr) Expr { return x })
}

// rebuild is the one structural copy of the tree: it returns a copy of e
// whose direct sub-expressions k are replaced by f(k, binders), binders
// being the variables e binds around k (For's Var and Pos over its order
// key and body, Let's and Quantified's Var, a typeswitch clause's variable,
// a fixpoint's Var over its body). A leaf, or nil, comes back as it is.
func rebuild(e Expr, f func(k Expr, binders ...string) Expr) Expr {
	exprs := func(in []Expr) []Expr {
		out := make([]Expr, len(in))
		for i, k := range in {
			out[i] = f(k)
		}
		return out
	}
	switch x := e.(type) {
	case *Seq:
		return &Seq{Items: exprs(x.Items)}
	case *For:
		c := *x
		c.In, c.Body = f(x.In), f(x.Body, x.Var, x.Pos)
		if x.OrderBy != nil {
			c.OrderBy = &OrderSpec{Key: f(x.OrderBy.Key, x.Var, x.Pos), Descending: x.OrderBy.Descending}
		}
		return &c
	case *Let:
		c := *x
		c.Value, c.Body = f(x.Value), f(x.Body, x.Var)
		return &c
	case *Quantified:
		c := *x
		c.In, c.Cond = f(x.In), f(x.Cond, x.Var)
		return &c
	case *If:
		return &If{Cond: f(x.Cond), Then: f(x.Then), Else: f(x.Else)}
	case *Binary:
		c := *x
		c.L, c.R = f(x.L), f(x.R)
		return &c
	case *Unary:
		return &Unary{E: f(x.E)}
	case *Slash:
		return &Slash{L: f(x.L), R: f(x.R)}
	case *AxisStep:
		c := *x
		c.Preds = exprs(x.Preds)
		return &c
	case *Filter:
		return &Filter{E: f(x.E), Preds: exprs(x.Preds)}
	case *FuncCall:
		c := *x
		c.Args = exprs(x.Args)
		return &c
	case *ElemCtor:
		c := *x
		c.NameExpr, c.Content = f(x.NameExpr), exprs(x.Content)
		c.Attrs = make([]*AttrCtor, len(x.Attrs))
		for i, a := range x.Attrs {
			c.Attrs[i] = f(a).(*AttrCtor)
		}
		return &c
	case *AttrCtor:
		c := *x
		c.NameExpr, c.Content = f(x.NameExpr), exprs(x.Content)
		return &c
	case *TextCtor:
		return &TextCtor{Content: f(x.Content)}
	case *TypeSwitch:
		c := *x
		c.Operand, c.Default = f(x.Operand), f(x.Default, x.DefaultVar)
		c.Cases = make([]*TSCase, len(x.Cases))
		for i, tc := range x.Cases {
			cc := *tc
			cc.Body = f(tc.Body, tc.Var)
			c.Cases[i] = &cc
		}
		return &c
	case *Fixpoint:
		c := *x
		c.Seed, c.Body = f(x.Seed), f(x.Body, x.Var)
		return &c
	}
	return e
}
