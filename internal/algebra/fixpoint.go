package algebra

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/xdm"
)

// evalMu executes the algebraic fixpoint operators µ (Naïve) and µ∆
// (Delta) of Section 4.1 through core's loop. Unlike the interpreter, the
// relational fixpoint is set-oriented: one µ execution iterates the body
// over *all* live iterations of the enclosing loop simultaneously (the way
// MonetDB/XQuery evaluates the bidder network's per-person recursion in
// bulk), converging when no iteration's node set grows.
//
// Loop-invariant hoisting: sub-plans that do not depend on the recursion
// base stay memoized across rounds; only base-dependent nodes re-evaluate.
//
// Accumulation is incremental (the point of the paper's Delta algorithm
// carried down to the data structures): each round's answer is absorbed in
// place into one xdm.Family, whose iterations are the loop's iter values
// mapped to dense ids — no round rebuilds or re-sorts what previous rounds
// already established.
// A Tabled site is fed ∆ in every round; an iteration-free one (mu.Keys)
// starts a fresh core table on every execution.
func (ctx *ExecContext) evalMu(n *Node) (*Table, error) {
	seedT, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	x := ctx.sites.Enter(n, func() (*MuRun, string) {
		if n.Delta {
			return &MuRun{Delta: true, Site: core.Site{Algorithm: core.Delta, Tabled: n.Tabled}}, "µ∆"
		}
		return &MuRun{Site: core.Site{Tabled: n.Tabled}}, "µ"
	})
	body := &muBody{ctx: ctx, mu: n, deps: ctx.bodyDeps(n), ids: map[xdm.Key]int32{}, out: x.Borrow()}
	defer x.Release(body.out)
	if n.Keys != nil {
		if body.loop, err = ctx.kid(n, 2); err != nil {
			return nil, err
		}
	}
	seed, err := body.batch(seedT)
	if err != nil {
		return nil, err
	}
	if n.Tabled && n.Keys != nil {
		x.Table, x.EmptySeeded = core.FreshTable, body.emptySeeded()
	}
	res, err := core.Run(x, seed, body)
	if err != nil {
		return nil, err
	}
	delete(ctx.binding, n.RecBase)
	delete(ctx.binding, n.Keys)
	for dep := range body.deps {
		delete(ctx.memo, dep)
	}
	t := body.table(res)
	x.Release(res)
	return t, nil
}

// muBody is the relational side of one µ/µ∆ execution: it binds the feed
// (OpRecBase) table, drops the rec-dependent memo entries so the body
// re-evaluates, and hands the answer to core's loop as a batch. Each
// distinct iter value becomes a dense family iteration id the first time
// the execution meets it. An iteration-free body also answers nodes one
// at a time (Answer), each in a key iteration of its own.
type muBody struct {
	ctx   *ExecContext
	mu    *Node
	deps  map[*Node]bool
	ids   map[xdm.Key]int32 // iter value → iteration id
	iters []xdm.Item        // iteration id → iter value
	order []int32           // ids by xdm.CompareOrder of their iter values
	out   *xdm.Family       // the batch, borrowed from the site
	loop  *Table            // the enclosing loop, when the body is compiled against mu.Keys
}

// Step evaluates the body for one payload application.
func (b *muBody) Step(feed *xdm.Family) (*xdm.Family, error) {
	out, err := b.eval(b.table(feed), b.loop)
	if err != nil {
		return nil, err
	}
	return b.batch(out)
}

// emptySeeded gives ids to the loop's iterations the seed left empty and
// returns them: a body compiled against key iterations answers them e(∅).
func (b *muBody) emptySeeded() []int32 {
	var ids []int32
	iterC := b.loop.ColAt(b.loop.Col("iter"))
	iterR := iterC.reader()
	for i := 0; i < b.loop.Len(); i++ {
		k := iterC.key(i)
		if _, seeded := b.ids[k]; !seeded {
			ids = append(ids, b.iterID(k, iterR.item(i)))
		}
	}
	return ids
}

// Answer evaluates an iteration-free body once over one key iteration per
// node: key i is fed nodes[i] alone, and a trailing zero NodeRef's key is
// fed nothing, which gives it e(∅).
func (b *muBody) Answer(nodes []xdm.NodeRef) (*xdm.Family, error) {
	keyV := make([]xdm.Item, len(nodes))
	for i := range keyV {
		keyV[i] = xdm.NewInteger(int64(i))
	}
	fed := len(nodes)
	if fed > 0 && nodes[fed-1] == (xdm.NodeRef{}) {
		fed--
	}
	feed := NewColTable([]string{"iter", "pos", "item"}, []*Column{
		genericColumn(keyV[:fed]), repeatColumn(xdm.NewInteger(1), fed), packedNodeColumn(nodes[:fed])})
	keys := NewColTable([]string{"iter"}, []*Column{genericColumn(keyV)})
	if err := b.ctx.chargeTable(keys); err != nil {
		return nil, err
	}
	out, err := b.eval(feed, keys)
	if err != nil {
		return nil, err
	}
	b.out.Reset()
	iterR, itemR := out.ColAt(out.Col("iter")).reader(), out.ColAt(out.Col("item")).reader()
	for i := 0; i < out.Len(); i++ {
		if err := b.out.Add(int32(iterR.item(i).Int()), itemR.item(i)); err != nil {
			return nil, err
		}
	}
	return b.out, nil
}

// eval binds the feed (and the key loop, for a body compiled against one)
// and evaluates the body plan afresh. The previous round's tables become
// collectible here: their memo entries are dropped, and columnar tables own
// their vectors outright.
func (b *muBody) eval(feed, keys *Table) (*Table, error) {
	ctx := b.ctx
	for dep := range b.deps {
		delete(ctx.memo, dep)
	}
	if err := ctx.chargeTable(feed); err != nil {
		return nil, err
	}
	ctx.binding[b.mu.RecBase] = feed
	if b.mu.Keys != nil {
		ctx.binding[b.mu.Keys] = keys
	}
	return ctx.eval(b.mu.Kids[1])
}

// batch refills the batch from an iter|…|item table. The family
// rejects the non-node items Definition 2.1 rules out.
func (b *muBody) batch(t *Table) (*xdm.Family, error) {
	b.out.Reset()
	iterC := t.ColAt(t.Col("iter"))
	iterR, itemR := iterC.reader(), t.ColAt(t.Col("item")).reader()
	for i := 0; i < t.Len(); i++ {
		if err := b.out.Add(b.iterID(iterC.key(i), iterR.item(i)), itemR.item(i)); err != nil {
			return nil, err
		}
	}
	return b.out, nil
}

// iterID returns the iteration id of the iter value v with key k,
// assigning the next one the first time.
func (b *muBody) iterID(k xdm.Key, v xdm.Item) int32 {
	id, ok := b.ids[k]
	if !ok {
		id = int32(len(b.iters))
		b.ids[k] = id
		b.iters = append(b.iters, v)
	}
	return id
}

// table materializes a family as an iter|pos|item relation with pos the
// document-order rank within each iteration, iterations in xdm.CompareOrder
// of their iter values; the order is re-sorted only when new ids appeared.
// The layout is columnar: three vectors for the whole family — the item
// column packed to identity words — instead of one row allocation per node,
// which is what makes the per-round µ feed cheap.
func (b *muBody) table(f *xdm.Family) *Table {
	if len(b.order) < len(b.iters) {
		for id := len(b.order); id < len(b.iters); id++ {
			b.order = append(b.order, int32(id))
		}
		slices.SortStableFunc(b.order, func(x, y int32) int { return xdm.CompareOrder(b.iters[x], b.iters[y]) })
	}
	iterV := make([]xdm.Item, 0, f.Len())
	posV := make([]xdm.Item, 0, f.Len())
	itemB := newColBuilder(f.Len())
	for _, id := range b.order {
		for i, n := range f.Nodes(id) {
			iterV = append(iterV, b.iters[id])
			posV = append(posV, xdm.NewInteger(int64(i+1)))
			itemB.appendNode(n)
		}
	}
	return NewColTable([]string{"iter", "pos", "item"},
		[]*Column{genericColumn(iterV), genericColumn(posV), itemB.finish()})
}

// bodyDeps returns the µ body's rec-dependent node set — the nodes whose
// memo entries must drop every round while everything else stays hoisted —
// derived once per µ site and cached across re-executions. -O0 and -O1
// plans take the same derivation.
func (ctx *ExecContext) bodyDeps(mu *Node) map[*Node]bool {
	d, ok := ctx.muDeps[mu]
	if !ok {
		d = recDependents(mu.Kids[1])
		ctx.muDeps[mu] = d
	}
	return d
}

// recDependents collects the sub-plan nodes reachable from root that
// contain an OpRecBase leaf (the recursion base or a key loop: the
// loop-dependence property) or a constructor; these must be re-evaluated
// on every fixpoint round while everything else stays hoisted in the memo
// cache. A constructor mints fresh nodes on every application (Definition
// 2.1), so it is never loop-invariant even when it does not read the
// recursion variable.
func recDependents(root *Node) map[*Node]bool {
	memo := map[*Node]bool{}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if v, ok := memo[n]; ok {
			return v
		}
		leaf := n.Op == OpRecBase
		memo[n] = leaf // guards against cycles (none expected)
		dep := leaf || n.Op == OpCtor
		for _, k := range n.Kids {
			if walk(k) {
				dep = true
			}
		}
		memo[n] = dep
		return dep
	}
	walk(root)
	out := map[*Node]bool{}
	for n, dep := range memo {
		if dep {
			out[n] = true
		}
	}
	return out
}

// evalCtor executes a constructor operator: Kids[0] is the loop relation
// (one element/attribute/text node is built per live iteration), Kids[1]
// the iter|pos|item content plan. Attribute items must precede content;
// runs of atomic items merge into space-separated text nodes; node items
// are deep-copied — every execution mints fresh identities, which is why ε
// blocks distributivity (Table 1).
func (ctx *ExecContext) evalCtor(n *Node) (*Table, error) {
	loop, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	content, err := ctx.kid(n, 1)
	if err != nil {
		return nil, err
	}
	posVals := materialize(content.ColAt(content.Col("pos")))
	itemVals := materialize(content.ColAt(content.Col("item")))
	loopIterC := loop.ColAt(loop.Col("iter"))
	keys := identityKeys([]*Column{content.ColAt(content.Col("iter"))}, []*Column{loopIterC})
	byIter := newHashIndex(content.Len(), content.Len())
	for i := content.Len() - 1; i >= 0; i-- {
		byIter.push(keys[0].at(i), int32(i))
	}
	loopIter := loopIterC.reader()
	iterV := make([]xdm.Item, 0, loop.Len())
	itemV := make([]xdm.Item, 0, loop.Len())
	var idx []int32
	var scratch []xdm.Item // reused across loop rows; buildCtorNode copies out
	for li := 0; li < loop.Len(); li++ {
		iter := loopIter.item(li)
		idx = idx[:0]
		for e := byIter.lookup(keys[1].at(li)); e != noEntry; e = byIter.next[e] {
			idx = append(idx, e)
		}
		slices.SortStableFunc(idx, func(a, b int32) int { return xdm.CompareOrder(posVals[a], posVals[b]) })
		scratch = scratch[:0]
		for _, r := range idx {
			scratch = append(scratch, itemVals[r])
		}
		node, err := buildCtorNode(n, scratch)
		if err != nil {
			return nil, err
		}
		if node != nil {
			iterV = append(iterV, iter)
			itemV = append(itemV, *node)
		}
	}
	// The item column stays generic by construction: every constructed node
	// lives in its own fresh document, exactly the shape packing loses on.
	return NewColTable([]string{"iter", "pos", "item"}, []*Column{
		columnFromItems(iterV),
		repeatColumn(xdm.NewInteger(1), len(iterV)),
		genericColumn(itemV),
	}), nil
}

func buildCtorNode(n *Node, items []xdm.Item) (*xdm.Item, error) {
	switch n.Ctor {
	case CtorText:
		if len(items) == 0 {
			return nil, nil
		}
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = it.StringValue()
		}
		it := xdm.NewNode(xdm.NewLeafDoc(xdm.TextNode, "", strings.Join(parts, " ")))
		return &it, nil
	case CtorAttr:
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = it.StringValue()
		}
		it := xdm.NewNode(xdm.NewLeafDoc(xdm.AttributeNode, n.CtorName, strings.Join(parts, " ")))
		return &it, nil
	case CtorElem:
		b := xdm.NewBuilder("")
		b.StartElement(n.CtorName)
		contentStarted := false
		var atomics []string
		flush := func() {
			if len(atomics) > 0 {
				b.Text(strings.Join(atomics, " "))
				atomics = nil
			}
		}
		for _, it := range items {
			if !it.IsNode() {
				atomics = append(atomics, it.StringValue())
				contentStarted = true
				continue
			}
			node := it.Node()
			if node.Kind() == xdm.AttributeNode {
				if contentStarted {
					return nil, xdm.NewError("XQTY0024", "attribute follows element content in constructor")
				}
				b.Attribute(node.Name(), node.Value())
				continue
			}
			flush()
			contentStarted = true
			b.CopyTree(node)
		}
		flush()
		b.EndElement()
		it := xdm.NewNode(xdm.NodeRef{D: b.Done(), Pre: 1})
		return &it, nil
	}
	return nil, xdm.NewError(xdm.ErrType, "algebra: unknown constructor kind")
}
