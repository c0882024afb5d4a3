package interp

import (
	"sort"

	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// env is an immutable linked-list variable environment.
type env struct {
	name string
	val  xdm.Sequence
	next *env
}

func (e *env) bind(name string, val xdm.Sequence) *env {
	return &env{name: name, val: val, next: e}
}

func (e *env) lookup(name string) (xdm.Sequence, bool) {
	for cur := e; cur != nil; cur = cur.next {
		if cur.name == name {
			return cur.val, true
		}
	}
	return nil, false
}

// dynCtx is the dynamic context: context item, position, and size.
type dynCtx struct {
	item xdm.Item
	ok   bool
	pos  int64
	size int64
}

type evaluator struct {
	engine    *Engine
	globals   map[string]xdm.Sequence
	globalEnv *env
	callDepth int
	ifpAgg    map[*ast.Fixpoint]*IFPRun
	ifpSite   map[*ast.Fixpoint]int // fixpoint site → Trace site index
	// evalTick samples the budget deadline check: one time.Now() per
	// 1024 eval calls keeps long non-fixpoint evaluations bounded without
	// a clock read in the hot path.
	evalTick uint
	// stepBuf is evalAxisStep's scratch for the step kernel's output.
	stepBuf []int32
}

func (ev *evaluator) eval(e ast.Expr, en *env, ctx dynCtx) (xdm.Sequence, error) {
	if b := ev.engine.opts.Budget; b != nil {
		if ev.evalTick++; ev.evalTick&1023 == 0 {
			if err := b.CheckDeadline(); err != nil {
				return nil, err
			}
		}
	}
	switch n := e.(type) {
	case *ast.Literal:
		switch n.Kind {
		case ast.LitInteger:
			return xdm.Singleton(xdm.NewInteger(n.Int)), nil
		case ast.LitDouble:
			return xdm.Singleton(xdm.NewDouble(n.Float)), nil
		default:
			return xdm.Singleton(xdm.NewString(n.Str)), nil
		}
	case *ast.VarRef:
		if v, ok := en.lookup(n.Name); ok {
			return v, nil
		}
		if v, ok := ev.globals[n.Name]; ok {
			return v, nil
		}
		return nil, xdm.Errorf(xdm.ErrUndefVar, "undefined variable $%s", n.Name)
	case *ast.ContextItem:
		if !ctx.ok {
			return nil, xdm.NewError(xdm.ErrCtxItem, "context item is undefined")
		}
		return xdm.Singleton(ctx.item), nil
	case *ast.RootExpr:
		if !ctx.ok {
			return nil, xdm.NewError(xdm.ErrCtxItem, "context item is undefined for '/'")
		}
		if !ctx.item.IsNode() {
			return nil, xdm.NewError(xdm.ErrType, "'/' requires a node context item")
		}
		return xdm.Singleton(xdm.NewNode(ctx.item.Node().D.Root())), nil
	case *ast.Seq:
		var out xdm.Sequence
		for _, it := range n.Items {
			v, err := ev.eval(it, en, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *ast.For:
		return ev.evalFor(n, en, ctx)
	case *ast.Let:
		v, err := ev.eval(n.Value, en, ctx)
		if err != nil {
			return nil, err
		}
		return ev.eval(n.Body, en.bind(n.Var, v), ctx)
	case *ast.Quantified:
		in, err := ev.eval(n.In, en, ctx)
		if err != nil {
			return nil, err
		}
		for _, it := range in {
			c, err := ev.eval(n.Cond, en.bind(n.Var, xdm.Singleton(it)), ctx)
			if err != nil {
				return nil, err
			}
			b, err := xdm.EBV(c)
			if err != nil {
				return nil, err
			}
			if b && !n.Every {
				return xdm.Singleton(xdm.NewBoolean(true)), nil
			}
			if !b && n.Every {
				return xdm.Singleton(xdm.NewBoolean(false)), nil
			}
		}
		return xdm.Singleton(xdm.NewBoolean(n.Every)), nil
	case *ast.If:
		c, err := ev.eval(n.Cond, en, ctx)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EBV(c)
		if err != nil {
			return nil, err
		}
		if b {
			return ev.eval(n.Then, en, ctx)
		}
		return ev.eval(n.Else, en, ctx)
	case *ast.Binary:
		return ev.evalBinary(n, en, ctx)
	case *ast.Unary:
		v, err := ev.eval(n.E, en, ctx)
		if err != nil {
			return nil, err
		}
		v = xdm.Atomize(v)
		if len(v) == 0 {
			return nil, nil
		}
		if len(v) > 1 {
			return nil, xdm.NewError(xdm.ErrType, "unary '-' over multi-item sequence")
		}
		it, err := toNumeric(v[0])
		if err != nil {
			return nil, err
		}
		if it.Kind() == xdm.KInteger {
			return xdm.Singleton(xdm.NewInteger(-it.Int())), nil
		}
		return xdm.Singleton(xdm.NewDouble(-it.Float())), nil
	case *ast.Slash:
		return ev.evalSlash(n, en, ctx)
	case *ast.AxisStep:
		return ev.evalAxisStep(n, en, ctx)
	case *ast.Filter:
		base, err := ev.eval(n.E, en, ctx)
		if err != nil {
			return nil, err
		}
		return ev.applyPreds(base, n.Preds, en)
	case *ast.FuncCall:
		return ev.evalCall(n, en, ctx)
	case *ast.ElemCtor:
		return ev.evalElemCtor(n, en, ctx)
	case *ast.AttrCtor:
		return ev.evalAttrCtor(n, en, ctx)
	case *ast.TextCtor:
		return ev.evalTextCtor(n, en, ctx)
	case *ast.TypeSwitch:
		return ev.evalTypeswitch(n, en, ctx)
	case *ast.Fixpoint:
		return ev.evalFixpoint(n, en, ctx)
	}
	return nil, xdm.Errorf(xdm.ErrType, "interp: unhandled expression %T", e)
}

func (ev *evaluator) evalFor(n *ast.For, en *env, ctx dynCtx) (xdm.Sequence, error) {
	in, err := ev.eval(n.In, en, ctx)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(in))
	for i := range order {
		order[i] = i
	}
	if n.OrderBy != nil {
		keys := make([]*xdm.Item, len(in))
		for i, it := range in {
			kenv := en.bind(n.Var, xdm.Singleton(it))
			if n.Pos != "" {
				kenv = kenv.bind(n.Pos, xdm.Singleton(xdm.NewInteger(int64(i+1))))
			}
			kv, err := ev.eval(n.OrderBy.Key, kenv, ctx)
			if err != nil {
				return nil, err
			}
			kv = xdm.Atomize(kv)
			if len(kv) > 1 {
				return nil, xdm.NewError(xdm.ErrType, "order by key is not a singleton")
			}
			if len(kv) == 1 {
				k := kv[0]
				keys[i] = &k
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			c := compareOrderKeys(keys[order[a]], keys[order[b]])
			if n.OrderBy.Descending {
				return c > 0
			}
			return c < 0
		})
	}
	var out xdm.Sequence
	for _, i := range order {
		benv := en.bind(n.Var, xdm.Singleton(in[i]))
		if n.Pos != "" {
			benv = benv.bind(n.Pos, xdm.Singleton(xdm.NewInteger(int64(i+1))))
		}
		v, err := ev.eval(n.Body, benv, ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// compareOrderKeys orders order-by keys: empty sequence sorts least;
// numerics compare numerically (NaN least), otherwise string comparison.
func compareOrderKeys(a, b *xdm.Item) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	if a.IsNumeric() || b.IsNumeric() {
		x, y := a.NumberValue(), b.NumberValue()
		switch {
		case x != x && y != y:
			return 0
		case x != x:
			return -1
		case y != y:
			return 1
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	xs, ys := a.StringValue(), b.StringValue()
	switch {
	case xs < ys:
		return -1
	case xs > ys:
		return 1
	}
	return 0
}

func (ev *evaluator) evalBinary(n *ast.Binary, en *env, ctx dynCtx) (xdm.Sequence, error) {
	switch n.Op {
	case ast.OpOr, ast.OpAnd:
		l, err := ev.eval(n.L, en, ctx)
		if err != nil {
			return nil, err
		}
		lb, err := xdm.EBV(l)
		if err != nil {
			return nil, err
		}
		if n.Op == ast.OpOr && lb {
			return xdm.Singleton(xdm.NewBoolean(true)), nil
		}
		if n.Op == ast.OpAnd && !lb {
			return xdm.Singleton(xdm.NewBoolean(false)), nil
		}
		r, err := ev.eval(n.R, en, ctx)
		if err != nil {
			return nil, err
		}
		rb, err := xdm.EBV(r)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewBoolean(rb)), nil
	}
	l, err := ev.eval(n.L, en, ctx)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(n.R, en, ctx)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case ast.OpGenEq, ast.OpGenNe, ast.OpGenLt, ast.OpGenLe, ast.OpGenGt, ast.OpGenGe:
		b, err := xdm.GeneralCompare(xdm.Atomize(l), xdm.Atomize(r), genOpOf(n.Op))
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewBoolean(b)), nil
	case ast.OpValEq, ast.OpValNe, ast.OpValLt, ast.OpValLe, ast.OpValGt, ast.OpValGe:
		la, ra := xdm.Atomize(l), xdm.Atomize(r)
		if len(la) == 0 || len(ra) == 0 {
			return nil, nil
		}
		if len(la) > 1 || len(ra) > 1 {
			return nil, xdm.NewError(xdm.ErrType, "value comparison over multi-item sequence")
		}
		b, err := xdm.CompareValues(la[0], ra[0], valOpOf(n.Op))
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewBoolean(b)), nil
	case ast.OpIs, ast.OpPrecedes, ast.OpFollows:
		ln, err := singleNodeOrEmpty(l, "node comparison")
		if err != nil {
			return nil, err
		}
		rn, err := singleNodeOrEmpty(r, "node comparison")
		if err != nil {
			return nil, err
		}
		if ln == nil || rn == nil {
			return nil, nil
		}
		var b bool
		switch n.Op {
		case ast.OpIs:
			b = ln.Same(*rn)
		case ast.OpPrecedes:
			b = ln.Before(*rn)
		default:
			b = rn.Before(*ln)
		}
		return xdm.Singleton(xdm.NewBoolean(b)), nil
	case ast.OpTo:
		lo, ok1, err := singleInteger(l)
		if err != nil {
			return nil, err
		}
		hi, ok2, err := singleInteger(r)
		if err != nil {
			return nil, err
		}
		if !ok1 || !ok2 || lo > hi {
			return nil, nil
		}
		if hi-lo >= 1<<24 {
			return nil, xdm.Errorf(xdm.ErrIFP, "range %d to %d exceeds the supported size", lo, hi)
		}
		out := make(xdm.Sequence, 0, hi-lo+1)
		for i := lo; i <= hi; i++ {
			out = append(out, xdm.NewInteger(i))
		}
		return out, nil
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpIDiv, ast.OpMod:
		return arith(n.Op, l, r)
	case ast.OpUnion:
		return xdm.Union(l, r)
	case ast.OpIntersect:
		return xdm.Intersect(l, r)
	case ast.OpExcept:
		return xdm.Except(l, r)
	}
	return nil, xdm.Errorf(xdm.ErrType, "interp: unhandled operator %s", n.Op)
}

func genOpOf(op ast.BinOp) xdm.CompOp { return xdm.CompOp(op - ast.OpGenEq) }
func valOpOf(op ast.BinOp) xdm.CompOp { return xdm.CompOp(op - ast.OpValEq) }

func singleNodeOrEmpty(s xdm.Sequence, what string) (*xdm.NodeRef, error) {
	if len(s) == 0 {
		return nil, nil
	}
	if len(s) > 1 || !s[0].IsNode() {
		return nil, xdm.NewError(xdm.ErrType, what+" requires at most one node")
	}
	n := s[0].Node()
	return &n, nil
}

func singleInteger(s xdm.Sequence) (int64, bool, error) {
	s = xdm.Atomize(s)
	if len(s) == 0 {
		return 0, false, nil
	}
	if len(s) > 1 {
		return 0, false, xdm.NewError(xdm.ErrType, "expected a single integer")
	}
	it := s[0]
	switch it.Kind() {
	case xdm.KInteger:
		return it.Int(), true, nil
	case xdm.KUntyped:
		i, err := xdm.ParseInteger(it.StringValue())
		if err != nil {
			return 0, false, xdm.NewError(xdm.ErrCast, "cannot cast to xs:integer: "+it.StringValue())
		}
		return i, true, nil
	case xdm.KDouble:
		f := it.Float()
		if f == float64(int64(f)) {
			return int64(f), true, nil
		}
	}
	return 0, false, xdm.NewError(xdm.ErrType, "expected xs:integer, found "+it.Kind().String())
}

// toNumeric casts an atomized item to a numeric per the arithmetic rules:
// untyped casts to xs:double, booleans are type errors.
func toNumeric(it xdm.Item) (xdm.Item, error) {
	switch it.Kind() {
	case xdm.KInteger, xdm.KDouble:
		return it, nil
	case xdm.KUntyped:
		f, err := xdm.ParseDouble(it.StringValue())
		if err != nil {
			return xdm.Item{}, xdm.NewError(xdm.ErrCast, "cannot cast to xs:double: "+it.StringValue())
		}
		return xdm.NewDouble(f), nil
	}
	return xdm.Item{}, xdm.NewError(xdm.ErrType, "arithmetic over "+it.Kind().String())
}

func arith(op ast.BinOp, l, r xdm.Sequence) (xdm.Sequence, error) {
	la, ra := xdm.Atomize(l), xdm.Atomize(r)
	if len(la) == 0 || len(ra) == 0 {
		return nil, nil
	}
	if len(la) > 1 || len(ra) > 1 {
		return nil, xdm.NewError(xdm.ErrType, "arithmetic over multi-item sequence")
	}
	x, err := toNumeric(la[0])
	if err != nil {
		return nil, err
	}
	y, err := toNumeric(ra[0])
	if err != nil {
		return nil, err
	}
	bothInt := x.Kind() == xdm.KInteger && y.Kind() == xdm.KInteger
	switch op {
	case ast.OpAdd:
		if bothInt {
			return xdm.Singleton(xdm.NewInteger(x.Int() + y.Int())), nil
		}
		return xdm.Singleton(xdm.NewDouble(x.NumberValue() + y.NumberValue())), nil
	case ast.OpSub:
		if bothInt {
			return xdm.Singleton(xdm.NewInteger(x.Int() - y.Int())), nil
		}
		return xdm.Singleton(xdm.NewDouble(x.NumberValue() - y.NumberValue())), nil
	case ast.OpMul:
		if bothInt {
			return xdm.Singleton(xdm.NewInteger(x.Int() * y.Int())), nil
		}
		return xdm.Singleton(xdm.NewDouble(x.NumberValue() * y.NumberValue())), nil
	case ast.OpDiv:
		// div over integers produces xs:decimal in XQuery; this subset
		// folds decimals into doubles (DESIGN.md §6).
		if bothInt && y.Int() == 0 {
			return nil, xdm.NewError(xdm.ErrDivZero, "division by zero")
		}
		return xdm.Singleton(xdm.NewDouble(x.NumberValue() / y.NumberValue())), nil
	case ast.OpIDiv:
		yi := y.NumberValue()
		if yi == 0 {
			return nil, xdm.NewError(xdm.ErrDivZero, "integer division by zero")
		}
		return xdm.Singleton(xdm.NewInteger(int64(x.NumberValue() / yi))), nil
	case ast.OpMod:
		if bothInt {
			if y.Int() == 0 {
				return nil, xdm.NewError(xdm.ErrDivZero, "modulus by zero")
			}
			return xdm.Singleton(xdm.NewInteger(x.Int() % y.Int())), nil
		}
		a, b := x.NumberValue(), y.NumberValue()
		return xdm.Singleton(xdm.NewDouble(a - b*float64(int64(a/b)))), nil
	}
	return nil, xdm.Errorf(xdm.ErrType, "interp: unhandled arithmetic %s", op)
}

func (ev *evaluator) evalTypeswitch(n *ast.TypeSwitch, en *env, ctx dynCtx) (xdm.Sequence, error) {
	op, err := ev.eval(n.Operand, en, ctx)
	if err != nil {
		return nil, err
	}
	for _, c := range n.Cases {
		if matchSeqType(op, c.Type) {
			benv := en
			if c.Var != "" {
				benv = en.bind(c.Var, op)
			}
			return ev.eval(c.Body, benv, ctx)
		}
	}
	benv := en
	if n.DefaultVar != "" {
		benv = en.bind(n.DefaultVar, op)
	}
	return ev.eval(n.Default, benv, ctx)
}

// matchSeqType implements `instance of` for the simplified sequence types.
func matchSeqType(s xdm.Sequence, t ast.SeqType) bool {
	if t.Occ == ast.OccEmpty {
		return len(s) == 0
	}
	switch t.Occ {
	case ast.OccOne:
		if len(s) != 1 {
			return false
		}
	case ast.OccOptional:
		if len(s) > 1 {
			return false
		}
	case ast.OccPlus:
		if len(s) == 0 {
			return false
		}
	}
	for _, it := range s {
		if !matchItemType(it, t) {
			return false
		}
	}
	return true
}

func matchItemType(it xdm.Item, t ast.SeqType) bool {
	switch t.Item {
	case ast.ITItem:
		return true
	case ast.ITNode:
		return it.IsNode()
	case ast.ITElement:
		return it.IsNode() && it.Node().Kind() == xdm.ElementNode && nameMatches(t.Name, it.Node().Name())
	case ast.ITAttribute:
		return it.IsNode() && it.Node().Kind() == xdm.AttributeNode && nameMatches(t.Name, it.Node().Name())
	case ast.ITText:
		return it.IsNode() && it.Node().Kind() == xdm.TextNode
	case ast.ITComment:
		return it.IsNode() && it.Node().Kind() == xdm.CommentNode
	case ast.ITPI:
		return it.IsNode() && it.Node().Kind() == xdm.PINode
	case ast.ITDocument:
		return it.IsNode() && it.Node().Kind() == xdm.DocumentNode
	case ast.ITString:
		return it.Kind() == xdm.KString
	case ast.ITInteger:
		return it.Kind() == xdm.KInteger
	case ast.ITDouble:
		return it.Kind() == xdm.KDouble
	case ast.ITBoolean:
		return it.Kind() == xdm.KBoolean
	case ast.ITUntyped:
		return it.Kind() == xdm.KUntyped
	case ast.ITAnyAtomic:
		return !it.IsNode()
	}
	return false
}

func nameMatches(pattern, name string) bool {
	return pattern == "" || pattern == "*" || pattern == name
}

// evalFixpoint implements `with $x seeded by e_seed recurse e_rec`
// (Definition 2.1), selecting the algorithm per the engine mode. Counters
// are aggregated per syntactic fixpoint site so an IFP nested in a
// for-loop (e.g. the bidder network query) reports totals across bindings.
func (ev *evaluator) evalFixpoint(n *ast.Fixpoint, en *env, ctx dynCtx) (xdm.Sequence, error) {
	seed, err := ev.eval(n.Seed, en, ctx)
	if err != nil {
		return nil, err
	}
	run := ev.ifpAgg[n]
	if run == nil {
		alg := core.Naive
		res := ev.engine.distCheck(n)
		switch ev.engine.opts.Mode {
		case ModeAuto:
			if res.Safe {
				alg = core.Delta
			}
		case ModeDelta:
			alg = core.Delta
		}
		run = &IFPRun{Var: n.Var, Algorithm: alg, Distributive: res.Safe, Rule: res.Rule}
		ev.ifpAgg[n] = run
	}
	payload := func(xs xdm.Sequence) (xdm.Sequence, error) {
		return ev.eval(n.Body, en.bind(n.Var, xs), ctx)
	}
	cfg := core.Config{
		MaxIterations: ev.engine.opts.MaxIterations,
		Parallelism:   ev.engine.opts.Parallelism,
		Context:       ev.engine.opts.Context,
		Budget:        ev.engine.opts.Budget,
	}
	if tr := ev.engine.opts.Trace; tr != nil {
		site, ok := ev.ifpSite[n]
		if !ok {
			site = tr.AddSite("$" + n.Var + " " + run.Algorithm.String())
			ev.ifpSite[n] = site
		}
		cfg.Trace, cfg.TraceSite = tr, site
	}
	val, stats, err := core.RunWith(run.Algorithm, seed, payload, cfg)
	run.Executions++
	run.Stats.Add(stats)
	if err != nil {
		return nil, err
	}
	return val, nil
}
