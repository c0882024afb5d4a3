package algebra

import (
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
// never copies a row per match.
func (ctx *ExecContext) evalStep(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	if err := ctx.Ctx.Err(); err != nil {
		return nil, err
	}
	c := in.Col(n.ItemCol)
	counts, nodes := ctx.stepRows(n, in.cols[c])
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

// stepRows answers every row of the context column: the per-row match
// counts and the result column. A packed context column yields a packed
// result over the same dictionary by bulk-appending segment words (every
// axis stays inside its context node's document); a generic one (mixed
// node/atomic rows, or past the packed-dictionary bound) goes through a
// colBuilder, non-node rows matching nothing.
func (ctx *ExecContext) stepRows(n *Node, col *Column) ([]int32, *Column) {
	rows := col.Len()
	counts := make([]int32, rows)
	var words []uint64
	var b *colBuilder
	if !col.IsPacked() {
		b = newColBuilder(rows)
	}
	var scratch []int32
	r := col.reader()
	for i := 0; i < rows; i++ {
		if !col.IsNodeAt(i) {
			continue
		}
		node := r.node(i)
		key := segKey{word: xdm.NodeWord(node), axis: n.Axis, kind: n.Test.Kind, name: n.Test.Name,
			val: n.ValEq, hasVal: n.ValEqSet}
		seg, ok := ctx.segCache[key]
		if !ok {
			scratch = xdm.Step(scratch[:0], node, n.Axis, n.Test, ctx.NoIndex, &ctx.index)
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
			ctx.segCache[key] = seg
		}
		counts[i] = int32(len(seg))
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
