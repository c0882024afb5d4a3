package algebra

import (
	"slices"
	"sort"
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
func (ctx *ExecContext) evalMu(n *Node) (*Table, error) {
	seedT, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	x := ctx.sites.Enter(n, func() (*MuRun, string) {
		if n.Delta {
			return &MuRun{Delta: true, Site: core.Site{Algorithm: core.Delta}}, "µ∆"
		}
		return &MuRun{}, "µ"
	})
	body := &muBody{ctx: ctx, mu: n, deps: ctx.bodyDeps(n), ids: map[xdm.Key]int32{}}
	seed, err := body.batch(seedT)
	if err != nil {
		return nil, err
	}
	// The optimizer's delta-fed step rewrite replaces eligible recursion-base
	// chains with OpRecDelta leaves. Bind only the feeds the body actually
	// reads: -O0 plans never contain recdelta, so useDelta stays false and
	// the evaluation (tables built, budget charges, stats) is byte-identical
	// to the unrewritten path.
	for dep := range body.deps {
		switch dep.Op {
		case OpRecBase:
			body.useBase = body.useBase || dep == n.RecBase
		case OpRecDelta:
			body.useDelta = body.useDelta || dep.RecBase == n.RecBase
		}
	}
	res, err := core.Run(x, seed, body)
	if err != nil {
		return nil, err
	}
	delete(ctx.binding, n.RecBase)
	delete(ctx.deltaBind, n.RecBase)
	for dep := range body.deps {
		delete(ctx.memo, dep)
	}
	return body.table(res), nil
}

// muBody is the relational side of one µ/µ∆ execution: it binds the feed
// (OpRecBase) and ∆ (OpRecDelta) tables, drops the rec-dependent memo
// entries so the body re-evaluates, and hands the answer to core's loop as
// a batch. Each distinct iter value becomes a dense family iteration id the
// first time the execution meets it.
type muBody struct {
	ctx               *ExecContext
	mu                *Node
	deps              map[*Node]bool
	useBase, useDelta bool
	ids               map[xdm.Key]int32 // iter value → iteration id
	iters             []xdm.Item        // iteration id → iter value
	order             []int32           // ids by xdm.CompareOrder of their iter values
	out               xdm.Family        // the batch, reused across rounds
}

// Step evaluates the body once. Naïve µ still feeds the accumulated family,
// but delta-fed body fragments (OpRecDelta) see only the genuinely new part
// of the previous round — for a body certified linear in the recursion
// variable this is answer- and stats-preserving (the delta-feed rule in
// opt/deltarules.go).
func (b *muBody) Step(feed, delta *xdm.Family) (*xdm.Family, error) {
	ctx := b.ctx
	for dep := range b.deps {
		delete(ctx.memo, dep)
	}
	// The previous round's feed table and rec-dependent intermediates
	// become collectible here: their memo entries were just dropped,
	// and columnar tables own their vectors outright — no shared slab
	// pins O(rounds × result) rows across rounds.
	var ft *Table
	if b.useBase || !b.useDelta {
		ft = b.table(feed)
		if err := ctx.chargeTable(ft); err != nil {
			return nil, err
		}
		ctx.binding[b.mu.RecBase] = ft
	}
	if b.useDelta {
		dt := ft
		if delta != feed || dt == nil {
			dt = b.table(delta)
			if err := ctx.chargeTable(dt); err != nil {
				return nil, err
			}
		}
		ctx.deltaBind[b.mu.RecBase] = dt
	}
	out, err := ctx.eval(b.mu.Kids[1])
	if err != nil {
		return nil, err
	}
	return b.batch(out)
}

// batch refills the batch from an iter|…|item table. The family
// rejects the non-node items Definition 2.1 rules out.
func (b *muBody) batch(t *Table) (*xdm.Family, error) {
	b.out.Reset()
	iterC := t.ColAt(t.Col("iter"))
	iterR, itemR := iterC.reader(), t.ColAt(t.Col("item")).reader()
	for i := 0; i < t.Len(); i++ {
		k := iterC.key(i)
		id, ok := b.ids[k]
		if !ok {
			id = int32(len(b.iters))
			b.ids[k] = id
			b.iters = append(b.iters, iterR.item(i))
		}
		if err := b.out.Add(id, itemR.item(i)); err != nil {
			return nil, err
		}
	}
	return &b.out, nil
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
		d = RecDependents(mu.Kids[1])
		ctx.muDeps[mu] = d
	}
	return d
}

// RecDependents collects the sub-plan nodes reachable from root that
// contain an OpRecBase or OpRecDelta leaf (the loop-dependence property) or
// a constructor; these must be re-evaluated on every fixpoint round while
// everything else stays hoisted in the memo cache. A constructor mints
// fresh nodes on every application (Definition 2.1), so it is never
// loop-invariant even when it does not read the recursion variable.
// Exported for the optimizer's delta-feed rule, which reads the same set
// off a µ body.
func RecDependents(root *Node) map[*Node]bool {
	memo := map[*Node]bool{}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if v, ok := memo[n]; ok {
			return v
		}
		leaf := n.Op == OpRecBase || n.Op == OpRecDelta
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
		sort.SliceStable(idx, func(a, b int) bool {
			return xdm.CompareOrder(posVals[idx[a]], posVals[idx[b]]) < 0
		})
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
