package algebra

import (
	"repro/internal/par"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// segKey identifies one step segment: the matches of (axis, test, pushed
// value filter) from one context node, as packed identity words. The word
// already encodes (document stamp, pre) — stamps are globally unique.
type segKey struct {
	word uint64
	axis ast.Axis
	kind ast.TestKind
	name string
	// Pushed-down value-equality filter (Node.ValEq); steps differing only
	// in the filter must not share segments.
	val    string
	hasVal bool
}

// evalStep is the XPath step join: the relational face of the staircase
// join. xdm.Step answers each distinct context node once per query — the
// segment memo serves repeats, and every fixpoint round re-steps from the
// same accumulated nodes — and the output is assembled run-length: the
// result column is the row-order concatenation of segments, every carried
// column replicates row i once per match of row i (expandRuns), so a step
// never copies a row per match. Large inputs shard row ranges across the
// worker pool — axis scans from distinct context nodes are independent —
// with chunk-ordered concatenation, so the output is byte-identical at
// every worker count.
func (ctx *ExecContext) evalStep(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	c := in.Col(n.ItemCol)
	col := in.cols[c]
	var counts []int32
	var nodes *Column
	workers := ctx.workers()
	if workers <= 1 || in.n < 2*parMinRows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		counts, nodes = ctx.stepRows(n, col, 0, in.n, false)
	} else {
		chunks := par.Chunks(in.n, workers, parMinRows)
		cnts := make([][]int32, len(chunks))
		outs := make([]*Column, len(chunks))
		if err := par.Run(ctx.Ctx, workers, len(chunks), func(i int) error {
			cnts[i], outs[i] = ctx.stepRows(n, col, chunks[i][0], chunks[i][1], true)
			return nil
		}); err != nil {
			return nil, err
		}
		counts = concatIndexChunks(cnts)
		nodes = concatColumns(outs)
	}
	cols := make([]*Column, len(in.cols))
	for i, cc := range in.cols {
		if i == c {
			cols[i] = nodes
			continue
		}
		cols[i] = cc.expandRuns(counts, nodes.Len())
	}
	return &Table{Cols: in.Cols, cols: cols, n: nodes.Len()}, nil
}

// stepRows answers rows [lo, hi) of the context column: the per-row match
// counts and the result column. A packed context column yields a packed
// result over the same dictionary by bulk-appending segment words (every
// axis stays inside its context node's document); a generic one (mixed
// node/atomic rows, or past the packed-dictionary bound) goes through a
// colBuilder, non-node rows matching nothing. When the call is one shard
// of a parallel step (shared), the memo is accessed under stepMu; a raced
// miss computes the identical immutable segment twice and last-write-wins.
// Unsharded calls skip the lock — the plan walk is single-threaded outside
// par.Run sections.
func (ctx *ExecContext) stepRows(n *Node, col *Column, lo, hi int, shared bool) ([]int32, *Column) {
	counts := make([]int32, hi-lo)
	var words []uint64
	var b *colBuilder
	if !col.IsPacked() {
		b = newColBuilder(hi - lo)
	}
	var scratch []int32
	r := col.reader()
	for i := lo; i < hi; i++ {
		if !col.IsNodeAt(i) {
			continue
		}
		node := r.node(i)
		key := segKey{word: nodeKey64(node), axis: n.Axis, kind: n.Test.Kind, name: n.Test.Name,
			val: n.ValEq, hasVal: n.ValEqSet}
		if shared {
			ctx.stepMu.Lock()
		}
		seg, ok := ctx.segCache[key]
		if shared {
			ctx.stepMu.Unlock()
		}
		if !ok {
			scratch = xdm.Step(scratch[:0], node, n.Axis, n.Test, ctx.NoIndex)
			stamp := key.word &^ (1<<32 - 1)
			if len(scratch) > 0 {
				seg = make([]uint64, 0, len(scratch))
			}
			for _, pre := range scratch {
				if n.ValEqSet && (xdm.NodeRef{D: node.D, Pre: pre}).StringValue() != n.ValEq {
					continue
				}
				seg = append(seg, stamp|uint64(uint32(pre)))
			}
			if shared {
				ctx.stepMu.Lock()
			}
			ctx.segCache[key] = seg
			if shared {
				ctx.stepMu.Unlock()
			}
		}
		counts[i-lo] = int32(len(seg))
		if b == nil {
			words = append(words, seg...)
			continue
		}
		for _, w := range seg {
			b.appendNode(xdm.NodeRef{D: node.D, Pre: int32(uint32(w))})
		}
	}
	if b != nil {
		return counts, b.finish()
	}
	if len(words) == 0 {
		return counts, &Column{}
	}
	return counts, &Column{packed: words, docs: col.docs}
}
