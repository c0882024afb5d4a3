package algebra

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// compileSlash lowers e1/e2: each node of e1 (in distinct document order)
// becomes one inner iteration in which e2 is evaluated with that node as
// context item; results are mapped back and, for node-producing steps,
// ddo-normalized.
func (c *compiler) compileSlash(n *ast.Slash, loop *Node, env cenv) (*Node, error) {
	// Fast path: an axis step on the right needs no iteration map — the
	// step join applies per node and keeps the source tag, so predicate
	// positions and sizes still count per context node (the relational
	// face of XPath's step-at-a-time evaluation).
	if st, ok := n.R.(*ast.AxisStep); ok {
		return c.compileFusedStep(n.L, st, loop, env)
	}
	q1, err := c.compile(n.L, loop, env)
	if err != nil {
		return nil, err
	}
	d := ddoNodes(q1)
	mapT := rowtag(d, "inner")
	innerLoop := Project(mapT, pp("iter", "inner"))
	lifted := c.liftEnv(env, mapT)
	lifted.dot = Project(mapT, pp("iter", "inner"), pp("item", "item"))
	cpos := rownum(mapT, "cp", []string{"pos"}, []string{"iter"})
	lifted.pos = Project(cpos, pp("iter", "inner"), pp("item", "cp"))
	cnt := &Node{Op: OpGroupCount, Kids: []*Node{d}, GroupCols: []string{"iter"}, Col: "sz"}
	szJoin := join(mapT, Project(cnt, pp("citer", "iter"), pp("sz", "sz")),
		JoinPred{L: "iter", R: "citer", Cmp: NumEq})
	lifted.last = Project(szJoin, pp("iter", "inner"), pp("item", "sz"))
	r, err := c.compile(n.R, innerLoop, lifted)
	if err != nil {
		return nil, err
	}
	back := Project(mapT, pp("outer", "iter"), pp("in2", "inner"), pp("spos", "pos"))
	joined := join(r, back, JoinPred{L: "iter", R: "in2", Cmp: NumEq})
	if producesAtomics(n.R) {
		rn := rownum(joined, "npos", []string{"spos", "pos"}, []string{"outer"})
		rn.Bookkeeping = true
		return Project(rn, pp("iter", "outer"), pp("pos", "npos"), pp("item", "item")), nil
	}
	return ddoNodes(Project(joined, pp("iter", "outer"), pp("item", "item"))), nil
}

// rankIsTemplate reports whether the per-context rank a predicate p sees,
// after the predicates earlier, is step-template bookkeeping that the
// distributivity check may step over. It is while p reads no position, or
// while the ranked rows are the step's matches for one context node as
// filtered by predicates that read nothing but the candidate and prolog
// globals. An earlier predicate that reads another variable — a
// recursion variable, say — may filter by a whole set, and a position
// taken among the survivors depends on all of it: in
// `doc("a.xml")//b[@c != $x/@c][1]`, e(S) is not ∪ e({n}).
func (c *compiler) rankIsTemplate(p ast.Expr, earlier []ast.Expr, env cenv) bool {
	if !mayBeNumeric(p) && !calls(p, "position", "last") {
		return true
	}
	return c.readsGlobalsOnly(&ast.Seq{Items: earlier}, env, "")
}

// calls reports whether e calls a function of one of the given names
// anywhere, nested predicates included.
func calls(e ast.Expr, names ...string) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if fc, ok := x.(*ast.FuncCall); ok && slices.Contains(names, fc.Name) {
			found = true
		}
		return !found
	})
	return found
}

// compileFusedStep lowers L/axis::test[preds] without the per-step
// iteration map: the step join runs directly over L's nodes, tagged with
// their source row, and the predicates group by (iter, src) so that
// positions and sizes stay per context node.
func (c *compiler) compileFusedStep(l ast.Expr, st *ast.AxisStep, loop *Node, env cenv) (*Node, error) {
	q, applied, err := c.fusedStepBase(l, st, loop, env)
	if err == nil && applied < len(st.Preds) {
		q, err = c.compilePreds(q, st.Preds, applied, []string{"iter", "src"}, env, true)
	}
	if err != nil {
		return nil, err
	}
	return ddoNodes(Project(q, pp("iter", "iter"), pp("item", "item"))), nil
}

// fusedStepBase produces the pre-predicate step relation
// iter|pos|item|src and the number of st's predicates it has already
// applied. When the step's input (and the step itself) is loop-invariant
// and no predicate reads a position or a size — a hoisted step's matches
// are one set per iteration, not one per context node — the bare step is
// hoisted: compiled once in the top loop, shared across the plan, and
// joined (valueJoin) or else crossed into the current iteration space.
func (c *compiler) fusedStepBase(l ast.Expr, st *ast.AxisStep, loop *Node, env cenv) (*Node, int, error) {
	if c.hoists(l, st, loop, env) {
		top, ok := c.hoisted[st]
		if !ok {
			bare := &ast.AxisStep{Axis: st.Axis, Test: st.Test} // predicates stay per-loop
			var err error
			top, _, err = c.fusedStepBase(l, bare, c.topLoop, c.topEnv)
			if err != nil {
				return nil, 0, err
			}
			top = ddoNodes(Project(top, pp("iter", "iter"), pp("item", "item")))
			c.hoisted[st] = top
		}
		if dep, free, ok := c.joinOperands(st.Preds, env); ok {
			q, err := c.valueJoin(top, dep, free, loop, env)
			return q, 1, err
		}
		adapted := &Node{Op: OpCross, Kids: []*Node{loop, Project(top, pp("pos", "pos"), pp("item", "item"))}}
		return attach(adapted, "src", xdm.NewInteger(0)), 0, nil
	}
	q1, err := c.compile(l, loop, env)
	if err != nil {
		return nil, 0, err
	}
	m := rowtag(ddoNodes(q1), "src")
	step := &Node{Op: OpStep,
		Kids: []*Node{Project(m, pp("iter", "iter"), pp("item", "item"), pp("src", "src"))},
		Axis: st.Axis, Test: st.Test, ItemCol: "item"}
	rn := rownum(step, "spos", []string{"item"}, []string{"iter", "src"})
	rn.Desc = st.Axis.Reverse()
	rn.Template = true
	return Project(rn, pp("iter", "iter"), pp("pos", "spos"), pp("item", "item"), pp("src", "src")), 0, nil
}

// hoists reports whether fusedStepBase hoists the step l/st out of loop.
func (c *compiler) hoists(l ast.Expr, st *ast.AxisStep, loop *Node, env cenv) bool {
	if c.topLoop == nil || loop == c.topLoop {
		return false
	}
	for _, p := range st.Preds {
		if mayBeNumeric(p) || calls(p, "position", "last") {
			return false
		}
	}
	return c.isInvariant(l, env)
}

// joinOperands recognizes the first predicate of a hoisted step as
// `dep = free`, in either operand order, where = is the general
// comparison, free cannot see the context (ast.ContextFree) and holds no
// fixpoint, constructor or user function, and dep reads the candidate and
// prolog globals only. Every other shape — another comparison, a local
// variable in dep, both or neither operand context-free — has ok false.
func (c *compiler) joinOperands(preds []ast.Expr, env cenv) (dep, free ast.Expr, ok bool) {
	if len(preds) == 0 {
		return nil, nil, false
	}
	b, isBin := preds[0].(*ast.Binary)
	if !isBin || b.Op != ast.OpGenEq {
		return nil, nil, false
	}
	dep, free = b.L, b.R
	if ast.ContextFree(dep) {
		dep, free = free, dep
	}
	ok = ast.ContextFree(free) && !ast.ContextFree(dep) && c.plain(free) && c.readsFocusAndGlobals(dep, env)
	return dep, free, ok
}

// valueJoin applies `dep = free` to the hoisted candidates top as one
// equi-join, where the crossed plan would pair every iteration of loop
// with every candidate and compare per pair. dep is compiled once per
// candidate in the top loop — a side with no recursion input, so the
// executor keeps it across fixpoint rounds — and free once per iteration
// of loop; both are atomized and joined on the general-comparison
// equality the crossed plan's comparison join applies (the joinKeys
// kernel), so exactly the same (iteration, candidate) pairs match. δ then
// keeps one row per pair; it realizes the ⋉ and is marked Template, as in
// iters. The candidate's pos and item ride along from the top-loop side,
// so no per-round join goes back to the candidates.
//
// Both operands are evaluated on rows the crossed plan never builds: free
// in an iteration that has no candidate, dep on a candidate no iteration
// pairs with. Nothing can observe that while the relational engine
// glosses kernel errors; eager errors (ROADMAP 3(b)) must restrict both
// sides to such rows when they land.
func (c *compiler) valueJoin(top *Node, dep, free ast.Expr, loop *Node, env cenv) (*Node, error) {
	cands := rowtag(top, "cand")
	candLoop := Project(cands, pp("iter", "cand"))
	candEnv := c.globalEnv(candLoop)
	candEnv.dot = Project(cands, pp("iter", "cand"), pp("item", "item"))
	d, err := c.compile(dep, candLoop, candEnv)
	if err != nil {
		return nil, err
	}
	f, err := c.compile(free, loop, env)
	if err != nil {
		return nil, err
	}
	keyed := join(Project(atomized(d), pp("dcand", "iter"), pp("key", "item")),
		Project(cands, pp("cand", "cand"), pp("pos", "pos"), pp("item", "item")),
		JoinPred{L: "dcand", R: "cand", Cmp: NumEq})
	matched := join(keyed, Project(atomized(f), pp("iter", "iter"), pp("fkey", "item")),
		JoinPred{L: "key", R: "fkey", Cmp: NumEq})
	pairs := distinct(Project(matched, pp("iter", "iter"), pp("pos", "pos"), pp("item", "item")))
	pairs.Template = true
	return attach(pairs, "src", xdm.NewInteger(0)), nil
}

// producesAtomics decides statically whether the right-hand side of a path
// yields atomic values (last steps like /string() or /data(·)); everything
// else is treated as node-producing and ddo-normalized. Mixed results are
// a dynamic error in XQuery; the static split mirrors that.
func producesAtomics(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return true
	case *ast.FuncCall:
		switch x.Name {
		case "string", "data", "number", "name", "local-name", "count", "string-length", "position", "last":
			return true
		}
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpIDiv, ast.OpMod:
			return true
		}
	case *ast.Unary:
		return true
	}
	return false
}

// compileAxisStep lowers a context-relative axis step. The per-context
// positional machinery (ϱ ranking step results within each iteration) is
// part of the step template (Figure 7(b)) and marked accordingly.
func (c *compiler) compileAxisStep(n *ast.AxisStep, loop *Node, env cenv) (*Node, error) {
	if env.dot == nil {
		return nil, xdm.NewError(xdm.ErrCtxItem, "axis step without context item")
	}
	step := &Node{Op: OpStep, Kids: []*Node{Project(env.dot, pp("iter", "iter"), pp("item", "item"))},
		Axis: n.Axis, Test: n.Test, ItemCol: "item"}
	rn := rownum(step, "pos", []string{"item"}, []string{"iter"})
	rn.Desc = n.Axis.Reverse()
	rn.Template = true
	q := Project(rn, pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"))
	if len(n.Preds) > 0 {
		var err error
		if q, err = c.compilePreds(q, n.Preds, 0, []string{"iter"}, env, true); err != nil {
			return nil, err
		}
	}
	if n.Axis.Reverse() {
		q = ddoNodes(q) // axis order was reverse; results go out in doc order
	}
	return q, nil
}

// compilePreds applies preds[from:] to a plan iter|pos|item that also
// carries group's other columns. Positions and sizes count within group:
// [iter] for a filter or a step from the context item, [iter, src] for a
// fused step, whose src tells its context nodes apart. inStep marks that
// per-context-node positional machinery as step-template internals; a
// predicate over a general primary ($x[1]) stays semantic and blocks the
// ∪ push-up, per §3.1.
func (c *compiler) compilePreds(q *Node, preds []ast.Expr, from int, group []string, env cenv, inStep bool) (*Node, error) {
	cols := append(make([]ProjPair, 0, len(group)+2), pp("iter", "iter"), pp("pos", "pos"), pp("item", "item"))
	for _, g := range group[1:] {
		cols = append(cols, pp(g, g))
	}
	// sized joins rows (which carry group's columns) with their group's
	// row count in of, as sz.
	sized := func(rows, of *Node, template bool) *Node {
		cnt := &Node{Op: OpGroupCount, Kids: []*Node{of}, GroupCols: group, Col: "sz", Template: template}
		var onGroup []JoinPred
		var counts []ProjPair
		for _, g := range group {
			onGroup = append(onGroup, JoinPred{L: g, R: "c" + g, Cmp: NumEq})
			counts = append(counts, pp("c"+g, g))
		}
		return join(rows, Project(cnt, append(counts, pp("sz", "sz"))...), onGroup...)
	}
	for i := from; i < len(preds); i++ {
		p := preds[i]
		ranked := rownum(q, "prank", []string{"pos"}, group)
		ranked.Template = inStep && c.rankIsTemplate(p, preds[:i], env)
		if lit, ok := p.(*ast.Literal); ok && lit.Kind == ast.LitInteger {
			eq := numop(attach(ranked, "want", xdm.NewInteger(lit.Int)), "keep", NumEq, "prank", "want")
			q = Project(sel(eq, "keep"), cols...)
			continue
		}
		if fc, ok := p.(*ast.FuncCall); ok && fc.Name == "last" && len(fc.Args) == 0 {
			eq := numop(sized(ranked, q, ranked.Template), "keep", NumEq, "prank", "sz")
			q = Project(sel(eq, "keep"), cols...)
			continue
		}
		// Boolean or run-time positional predicate: one inner iteration per
		// candidate row.
		mapT := rowtag(ranked, "inner")
		innerLoop := Project(mapT, pp("iter", "inner"))
		lifted := c.liftEnv(env, mapT)
		lifted.dot = Project(mapT, pp("iter", "inner"), pp("item", "item"))
		lifted.pos = Project(mapT, pp("iter", "inner"), pp("item", "prank"))
		if calls(p, "last") {
			lifted.last = Project(sized(mapT, q, ranked.Template), pp("iter", "inner"), pp("item", "sz"))
		}
		ci, err := c.compilePredicate(p, innerLoop, lifted)
		if err != nil {
			return nil, err
		}
		keep := semijoin(mapT, Project(ci, pp("pi", "iter")),
			JoinPred{L: "inner", R: "pi", Cmp: NumEq})
		q = Project(keep, cols...)
	}
	return q, nil
}

// compilePredicate compiles a predicate in its inner iteration space (one
// iteration per candidate row, env.pos the row's rank) to the iterations
// whose row it keeps. A predicate that may be numeric is decided per row at
// run time: a number keeps the row at that position, anything else keeps
// it by its effective boolean value — so `item[$i]` selects one item.
func (c *compiler) compilePredicate(p ast.Expr, loop *Node, env cenv) (*Node, error) {
	if !mayBeNumeric(p) {
		return c.compileCondition(p, loop, env)
	}
	v, err := c.compile(p, loop, env)
	if err != nil {
		return nil, err
	}
	j := join(v, Project(env.pos, pp("piter", "iter"), pp("prank", "item")),
		JoinPred{L: "iter", R: "piter", Cmp: NumEq})
	return iters(sel(numop(j, "keep", NumPredicate, "item", "prank"), "keep")), nil
}

// mayBeNumeric reports whether a predicate's value may be a number, which
// makes it a position test; the rest are plain conditions.
func mayBeNumeric(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Kind != ast.LitString
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpIDiv, ast.OpMod:
			return true
		}
		return false
	case *ast.Slash:
		return producesAtomics(x.R) && mayBeNumeric(x.R)
	case *ast.AxisStep, *ast.RootExpr, *ast.Quantified, *ast.ElemCtor, *ast.AttrCtor, *ast.TextCtor:
		return false
	case *ast.FuncCall:
		switch x.Name {
		case "not", "exists", "empty", "true", "false", "boolean", "string", "name", "local-name", "root", "id":
			return false
		}
	}
	return true
}

const maxInlineDepth = 64

// compileCall lowers built-ins directly and inlines user-defined functions
// (Pathfinder-style); recursion through user functions is rejected — the
// IFP form is the supported recursion construct in the relational back-end,
// which is exactly the paper's point.
func (c *compiler) compileCall(n *ast.FuncCall, loop *Node, env cenv) (*Node, error) {
	if decl := c.module.Function(n.Name, len(n.Args)); decl != nil {
		if c.inlineDepth >= maxInlineDepth {
			return nil, unsupported(
				"recursive user-defined function %s (recast the recursion as `with … seeded by … recurse`)", n.Name)
		}
		c.inlineDepth++
		defer func() { c.inlineDepth-- }()
		body := ast.Copy(decl.Body)
		callEnv := cenv{vars: map[string]*Node{}}
		// Functions see globals, not caller locals.
		for _, g := range c.module.Vars {
			if p, ok := env.vars[g.Name]; ok {
				callEnv.vars[g.Name] = p
			}
		}
		for i, prm := range decl.Params {
			argPlan, err := c.compile(n.Args[i], loop, env)
			if err != nil {
				return nil, err
			}
			fresh := fmt.Sprintf("%s\x00%d", prm.Name, c.inlineDepth)
			body = ast.Substitute(body, prm.Name, &ast.VarRef{Name: fresh})
			callEnv = callEnv.bind(fresh, argPlan)
		}
		// The copy has the declaration's shape, so its sites pair up in order.
		sites := ast.Fixpoints(decl.Body)
		for i, fp := range ast.Fixpoints(body) {
			if c.origin == nil {
				c.origin = map[*ast.Fixpoint]*ast.Fixpoint{}
			}
			c.origin[fp] = sites[i]
		}
		return c.compile(body, loop, callEnv)
	}
	switch n.Name {
	case "doc":
		lit, ok := n.Args[0].(*ast.Literal)
		if !ok || lit.Kind != ast.LitString {
			return nil, unsupported("fn:doc with non-literal URI")
		}
		docLeaf := &Node{Op: OpDoc, URI: lit.Str}
		return attach(&Node{Op: OpCross, Kids: []*Node{loop, docLeaf}}, "pos", xdm.NewInteger(1)), nil
	case "count":
		if len(n.Args) != 1 {
			return nil, xdm.Errorf(xdm.ErrArity, "count expects 1 argument")
		}
		q, err := c.compile(n.Args[0], loop, env)
		if err != nil {
			return nil, err
		}
		cnt := &Node{Op: OpGroupCount, Kids: []*Node{q}, GroupCols: []string{"iter"}, Col: "cnt"}
		nonEmpty := Project(cnt, pp("iter", "iter"), pp("item", "cnt"))
		zero := attach(antijoin(loop, iters(q), JoinPred{L: "iter", R: "iter", Cmp: NumEq}),
			"item", xdm.NewInteger(0))
		return attach(union(nonEmpty, zero), "pos", xdm.NewInteger(1)), nil
	case "empty", "exists", "not", "boolean", "true", "false":
		ci, err := c.compileCondition(n, loop, env)
		if err != nil {
			return nil, err
		}
		return boolify(loop, ci), nil
	case "data":
		q, err := c.compile(n.Args[0], loop, env)
		if err != nil {
			return nil, err
		}
		a := numop(q, "a", NumAtomize, "item")
		return Project(a, pp("iter", "iter"), pp("pos", "pos"), pp("item", "a")), nil
	case "string", "number", "name", "local-name":
		var q *Node
		var err error
		if len(n.Args) == 0 {
			if env.dot == nil {
				return nil, xdm.NewError(xdm.ErrCtxItem, "fn:"+n.Name+" with absent context item")
			}
			q = attach(env.dot, "pos", xdm.NewInteger(1))
		} else {
			q, err = c.compile(n.Args[0], loop, env)
			if err != nil {
				return nil, err
			}
		}
		kind := map[string]NumKind{"string": NumStringOf, "number": NumNumberOf,
			"name": NumNameOf, "local-name": NumNameOf}[n.Name]
		r := numop(q, "r", kind, "item")
		mapped := Project(r, pp("iter", "iter"), pp("item", "r"))
		// fn:string(()) is "" and fn:number(()) is NaN: fill empty iters.
		var fillVal xdm.Item
		if n.Name == "number" {
			fillVal = xdm.NewDouble(math.NaN())
		} else {
			fillVal = xdm.NewString("")
		}
		fill := attach(antijoin(loop, iters(q), JoinPred{L: "iter", R: "iter", Cmp: NumEq}), "item", fillVal)
		return attach(union(mapped, fill), "pos", xdm.NewInteger(1)), nil
	case "position":
		if env.pos == nil {
			return nil, xdm.NewError(xdm.ErrCtxItem, "fn:position with absent context")
		}
		return attach(env.pos, "pos", xdm.NewInteger(1)), nil
	case "last":
		if env.last == nil {
			return nil, xdm.NewError(xdm.ErrCtxItem, "fn:last with absent context")
		}
		return attach(env.last, "pos", xdm.NewInteger(1)), nil
	case "id":
		v, err := c.compile(n.Args[0], loop, env)
		if err != nil {
			return nil, err
		}
		var ctxPlan *Node
		if len(n.Args) == 2 {
			ctxPlan, err = c.compile(n.Args[1], loop, env)
			if err != nil {
				return nil, err
			}
		} else if env.dot != nil {
			ctxPlan = attach(env.dot, "pos", xdm.NewInteger(1))
		} else {
			return nil, xdm.NewError(xdm.ErrCtxItem, "fn:id requires a node context")
		}
		ctxP := Project(ctxPlan, pp("citer", "iter"), pp("cnode", "item"))
		j := join(v, ctxP, JoinPred{L: "iter", R: "citer", Cmp: NumEq})
		idl := &Node{Op: OpIDLookup, Kids: []*Node{j}, ItemCol: "item", Col: "cnode"}
		return ddoNodes(Project(idl, pp("iter", "iter"), pp("item", "item"))), nil
	case "root":
		var q *Node
		var err error
		if len(n.Args) == 0 {
			if env.dot == nil {
				return nil, xdm.NewError(xdm.ErrCtxItem, "fn:root with absent context item")
			}
			q = attach(env.dot, "pos", xdm.NewInteger(1))
		} else {
			q, err = c.compile(n.Args[0], loop, env)
			if err != nil {
				return nil, err
			}
		}
		r := numop(q, "r", NumRootOf, "item")
		return Project(r, pp("iter", "iter"), pp("pos", "pos"), pp("item", "r")), nil
	}
	return nil, unsupported("function %s#%d", n.Name, len(n.Args))
}

// compileFixpoint lowers `with $x seeded by e_seed recurse e_rec` to the µ
// operator (Section 4.1): the body is compiled with the recursion variable
// bound to the recursion-base placeholder and the executor feeds the
// placeholder each round. Whether µ or µ∆ runs is decided by the engine
// after the algebraic distributivity check.
//
// An iteration-free body answers a node the same way in every iteration of
// loop, so it is compiled against its own loop, the key leaf mu.Keys, with
// the globals lifted into it: evalMu binds the key leaf to one iteration
// per node it evaluates, or to loop itself, and loop rides along as
// Kids[2].
func (c *compiler) compileFixpoint(n *ast.Fixpoint, loop *Node, env cenv) (*Node, error) {
	seed, err := c.compile(n.Seed, loop, env)
	if err != nil {
		return nil, err
	}
	mu := &Node{Op: OpMu, RecBase: &Node{Op: OpRecBase}}
	site := &MuSite{Mu: mu, Fixpoint: n,
		IterationFree: !usesContextFreely(n.Body) && c.readsGlobalsOnly(n.Body, env, n.Var)}
	if o, ok := c.origin[n]; ok {
		site.Fixpoint = o
	}
	bodyLoop, bodyEnv := loop, env
	if site.IterationFree {
		mu.Keys = &Node{Op: OpRecBase, LitCols: []string{"iter"}}
		bodyLoop, bodyEnv = mu.Keys, c.globalEnv(mu.Keys)
	}
	body, err := c.compile(n.Body, bodyLoop, bodyEnv.bind(n.Var, mu.RecBase))
	if err != nil {
		return nil, err
	}
	mu.Kids = []*Node{seed, body}
	if site.IterationFree {
		mu.Kids = append(mu.Kids, loop)
	}
	site.Distributive = CheckDistributive(mu, true)
	site.DistributiveExt = CheckDistributive(mu, false)
	c.mus = append(c.mus, site)
	return mu, nil
}

func (c *compiler) compileElemCtor(n *ast.ElemCtor, loop *Node, env cenv) (*Node, error) {
	if n.NameExpr != nil {
		return nil, unsupported("computed element name")
	}
	parts := make([]*Node, 0, len(n.Attrs)+len(n.Content))
	for _, a := range n.Attrs {
		p, err := c.compileAttrCtor(a, loop, env)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	for _, ce := range n.Content {
		p, err := c.compile(ce, loop, env)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	var content *Node
	if len(parts) == 0 {
		content = NewLit([]string{"iter", "pos", "item", "ord"}, nil)
	} else {
		for i, p := range parts {
			tagged := attach(p, "ord", xdm.NewInteger(int64(i)))
			if content == nil {
				content = tagged
			} else {
				content = union(content, tagged)
			}
		}
	}
	rn := rownum(content, "npos", []string{"ord", "pos"}, []string{"iter"})
	rn.Bookkeeping = true
	ordered := Project(rn, pp("iter", "iter"), pp("pos", "npos"), pp("item", "item"))
	return &Node{Op: OpCtor, Ctor: CtorElem, CtorName: n.Name, Kids: []*Node{loop, ordered}}, nil
}

func (c *compiler) compileAttrCtor(n *ast.AttrCtor, loop *Node, env cenv) (*Node, error) {
	if n.NameExpr != nil {
		return nil, unsupported("computed attribute name")
	}
	// Literal-only multi-part values fold at compile time; a single
	// expression part is supported; mixed parts are not, because joining
	// them needs a per-iteration string concatenation the algebra lacks.
	allLit := true
	folded := ""
	for _, p := range n.Content {
		if lit, ok := p.(*ast.Literal); ok && lit.Kind == ast.LitString {
			folded += lit.Str
			continue
		}
		allLit = false
	}
	var content *Node
	switch {
	case allLit:
		content = constSeq(loop, xdm.NewString(folded))
	case len(n.Content) == 1:
		q, err := c.compile(n.Content[0], loop, env)
		if err != nil {
			return nil, err
		}
		a := numop(q, "a", NumAtomize, "item")
		content = Project(a, pp("iter", "iter"), pp("pos", "pos"), pp("item", "a"))
	default:
		return nil, unsupported("attribute value mixing literals and expressions")
	}
	return &Node{Op: OpCtor, Ctor: CtorAttr, CtorName: n.Name, Kids: []*Node{loop, content}}, nil
}

// ResultSequence extracts the XDM sequence of the top-level iteration from
// a result table (iter is constant 1 at the top loop).
func ResultSequence(t *Table) xdm.Sequence {
	posVals := materialize(t.ColAt(t.Col("pos")))
	itemVals := materialize(t.ColAt(t.Col("item")))
	order := make([]int, t.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return xdm.CompareOrder(posVals[order[a]], posVals[order[b]]) < 0
	})
	out := make(xdm.Sequence, 0, len(order))
	for _, i := range order {
		out = append(out, itemVals[i])
	}
	return out
}
