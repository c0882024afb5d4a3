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
	if c := e.cell(name); c != nil {
		return c.val, true
	}
	return nil, false
}

// cell is the binding $name resolves to in e, or nil.
func (e *env) cell(name string) *env {
	for cur := e; cur != nil; cur = cur.next {
		if cur.name == name {
			return cur
		}
	}
	return nil
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
	sites     *core.Sites[*ast.Fixpoint, *IFPRun]
	// evalTick samples the budget deadline check: one time.Now() per
	// 1024 eval calls keeps long non-fixpoint evaluations bounded without
	// a clock read in the hot path.
	evalTick uint
	// stepBuf is evalAxisStep's scratch for the step kernel's output.
	stepBuf []int32
	// index counts the evaluation's index probes and fallbacks; Eval adds
	// it to the process totals when the evaluation ends.
	index xdm.IndexCounts
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
		if len(v) == 0 {
			return nil, nil
		}
		if len(v) > 1 {
			return nil, xdm.NewError(xdm.ErrType, "unary '-' over multi-item sequence")
		}
		it, err := xdm.Negate(v[0])
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(it), nil
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
		var numeric, other bool
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
				numeric, other = numeric || k.IsNumeric(), other || !k.IsNumeric()
			}
		}
		if numeric && other {
			return nil, xdm.NewError(xdm.ErrType, "order by keys mix numeric and non-numeric values")
		}
		sort.SliceStable(order, func(a, b int) bool {
			var c int
			switch ka, kb := keys[order[a]], keys[order[b]]; {
			case ka == nil && kb == nil:
			case ka == nil: // the empty key sorts least
				c = -1
			case kb == nil:
				c = 1
			default:
				c = xdm.CompareOrder(*ka, *kb)
			}
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
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		if len(l) > 1 || len(r) > 1 {
			return nil, xdm.NewError(xdm.ErrType, "arithmetic over multi-item sequence")
		}
		it, err := xdm.Arith(n.Op, l[0], r[0])
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(it), nil
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
// (Definition 2.1) through core's loop, selecting the algorithm per the
// engine mode. Counters are aggregated per syntactic fixpoint site so an
// IFP nested in a for-loop (e.g. the bidder network query) reports totals
// across bindings.
func (ev *evaluator) evalFixpoint(n *ast.Fixpoint, en *env, ctx dynCtx) (xdm.Sequence, error) {
	seed, err := ev.eval(n.Seed, en, ctx)
	if err != nil {
		return nil, err
	}
	x := ev.sites.Enter(n, func() (*IFPRun, string) {
		res := ev.engine.distCheck(n)
		alg := ev.engine.opts.Mode.Pick(res.Safe)
		run := &IFPRun{Var: n.Var, Rule: res.Rule, Site: core.Site{Algorithm: alg, Distributive: res.Safe}}
		if alg == core.Delta && res.Safe {
			run.Tabled, run.bound = true, newBindings(n)
		}
		return run, "$" + n.Var + " " + alg.String()
	})
	// The recursion variable is bound to a node *set*: core's loop feeds
	// the seed in distinct document order.
	body := &ifpBody{ev: ev, fp: n, env: en, ctx: ctx, out: x.Borrow()}
	defer x.Release(body.out)
	if err := body.add(0, seed); err != nil {
		return nil, err
	}
	if b := ev.sites.Record(x).bound; b != nil {
		x.Table = b.tabling(en, ctx)
		if len(seed) == 0 {
			x.EmptySeeded = []int32{0}
		}
	}
	res, err := core.Run(x, body.out, body)
	if err != nil {
		return nil, err
	}
	out := xdm.NodeSeq(res.Nodes(0))
	x.Release(res)
	return out, nil
}

// bindings are the inputs besides the recursion variable — the body's
// other free variables and the focus — a tabled site's last executions ran
// under: a node's answer holds only while they stay the same.
type bindings struct {
	free  []string
	cells []*env // the env cell each free variable resolved to, or nil
	ctx   dynCtx
	runs  int // executions under them so far
}

func newBindings(fp *ast.Fixpoint) *bindings {
	b := &bindings{}
	for v := range ast.FreeVars(fp.Body) {
		if v != fp.Var {
			b.free = append(b.free, v)
		}
	}
	b.cells = make([]*env, len(b.free))
	return b
}

// tabling records one more execution under en and ctx and says what it
// does with the site's table. The first execution under new bindings runs
// untabled, set-at-a-time: a site executed once never reuses a table, and
// answering its nodes one at a time only costs (on a 2-core VM, T2.8, the
// hospital query, ran 0.76 → 0.98 ms when first executions tabled).
// The second starts a fresh table, and every later one reuses it.
func (b *bindings) tabling(en *env, ctx dynCtx) core.Tabling {
	same := b.ctx == ctx
	for i, v := range b.free {
		c := en.cell(v)
		same = same && c == b.cells[i]
		b.cells[i] = c
	}
	if !same {
		b.ctx, b.runs = ctx, 0
	}
	switch b.runs++; b.runs {
	case 1:
		return core.Untabled
	case 2:
		return core.FreshTable
	}
	return core.ReuseTable
}

// ifpBody is the interpreter's side of one fixpoint execution: it binds
// the feed, or one node of it, to the recursion variable, evaluates the
// body, and hands the answer to core's loop as a batch.
type ifpBody struct {
	ev  *evaluator
	fp  *ast.Fixpoint
	env *env
	ctx dynCtx
	out *xdm.Family // the batch, borrowed from the site
}

// Step evaluates the body on the whole feed, as iteration 0 of the batch.
func (b *ifpBody) Step(feed *xdm.Family) (*xdm.Family, error) {
	out, err := b.ev.eval(b.fp.Body, b.env.bind(b.fp.Var, xdm.NodeSeq(feed.Nodes(0))), b.ctx)
	if err != nil {
		return nil, err
	}
	b.out.Reset()
	return b.out, b.add(0, out)
}

// Answer evaluates the body on each node alone, as iteration i of the
// batch; the zero NodeRef binds the recursion variable to ().
func (b *ifpBody) Answer(nodes []xdm.NodeRef) (*xdm.Family, error) {
	b.out.Reset()
	for i, n := range nodes {
		var x xdm.Sequence
		if n.D != nil {
			x = xdm.Singleton(xdm.NewNode(n))
		}
		out, err := b.ev.eval(b.fp.Body, b.env.bind(b.fp.Var, x), b.ctx)
		if err != nil {
			return nil, err
		}
		if err := b.add(int32(i), out); err != nil {
			return nil, err
		}
	}
	return b.out, nil
}

// add appends s to the batch as iteration id; Family.Add rejects the
// non-node items Definition 2.1 rules out.
func (b *ifpBody) add(id int32, s xdm.Sequence) error {
	for _, it := range s {
		if err := b.out.Add(id, it); err != nil {
			return err
		}
	}
	return nil
}
