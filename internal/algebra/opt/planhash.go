package opt

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// PlanHash returns a stable structural hash of an optimized plan DAG —
// the result-cache key. Unlike the consing signatures (which deliberately
// refuse to describe ε/µ/OpRecBase so they never merge), the hash covers
// every operator and every semantic field: two plans hash equal iff they
// are structurally identical, including DAG sharing shape (shared
// subtrees hash as back-references, so a tree and the consed DAG of the
// same expression hash differently — which is correct, they came from
// different optimizer pipelines and the cache key includes the opt level
// anyway). It is deterministic across processes: no pointers, no map
// iteration — nodes are numbered in first-visit DFS order.
func PlanHash(root *algebra.Node) uint64 {
	h := fnv.New64a()
	ids := map[*algebra.Node]int{}
	var visit func(n *algebra.Node)
	visit = func(n *algebra.Node) {
		if id, ok := ids[n]; ok {
			fmt.Fprintf(h, "^%d;", id)
			return
		}
		ids[n] = len(ids)
		fmt.Fprintf(h, "(%d", n.Op)
		writeFields(h, n)
		for _, k := range n.Kids {
			visit(k)
		}
		if (n.Op == algebra.OpMu || n.Op == algebra.OpRecDelta) && n.RecBase != nil {
			// The rec-base backlink is part of µ's (and a delta leaf's)
			// identity. For µ the leaf was visited via the body; a delta leaf
			// may precede its base in DFS order (or the base may be fully
			// rewritten away), so assign its id on demand — still
			// deterministic, ids follow first-mention order.
			id, ok := ids[n.RecBase]
			if !ok {
				id = len(ids)
				ids[n.RecBase] = id
			}
			fmt.Fprintf(h, "@%d", id)
		}
		fmt.Fprint(h, ")")
	}
	visit(root)
	return h.Sum64()
}

// writeFields appends every semantic field of n (everything except Kids
// and the lazily computed schema) in a fixed, delimited order.
func writeFields(h io.Writer, n *algebra.Node) {
	var sb strings.Builder
	if n.Delta {
		sb.WriteString("|D")
	}
	if n.Desc {
		sb.WriteString("|desc")
	}
	if n.Template {
		sb.WriteString("|T")
	}
	if n.Bookkeeping {
		sb.WriteString("|B")
	}
	switch n.Op {
	case algebra.OpLit:
		sb.WriteString("|" + strings.Join(n.LitCols, ","))
		for _, row := range n.Rows {
			sb.WriteByte('|')
			for _, it := range row {
				s := stableItemSig(it)
				fmt.Fprintf(&sb, "%d:%s", len(s), s)
			}
		}
	case algebra.OpDoc:
		sb.WriteString("|" + n.URI)
	case algebra.OpProject:
		for _, p := range n.Proj {
			sb.WriteString("|" + p.Out + ":" + p.In)
		}
	case algebra.OpAttach:
		sb.WriteString("|" + n.Col + "=" + stableItemSig(n.Val))
	case algebra.OpSelect, algebra.OpRowTag:
		sb.WriteString("|" + n.Col)
	case algebra.OpJoin, algebra.OpSemiJoin, algebra.OpAntiJoin:
		for _, p := range n.Preds {
			fmt.Fprintf(&sb, "|%s~%d~%s", p.L, p.Cmp, p.R)
		}
	case algebra.OpGroupCount:
		sb.WriteString("|" + n.Col + "/" + strings.Join(n.GroupCols, ","))
	case algebra.OpNumOp:
		fmt.Fprintf(&sb, "|%s=%d(%s)", n.Col, n.Num, strings.Join(n.NumArgs, ","))
	case algebra.OpRowNum:
		fmt.Fprintf(&sb, "|%s/%s/%s", n.Col,
			strings.Join(n.SortCols, ","), strings.Join(n.GroupCols, ","))
	case algebra.OpStep:
		fmt.Fprintf(&sb, "|%d::%d:%s:%s:%v:%s", n.Axis, n.Test.Kind, n.Test.Name, n.ItemCol,
			n.ValEqSet, n.ValEq)
	case algebra.OpIDLookup:
		sb.WriteString("|" + n.ItemCol + "/" + n.Col)
	case algebra.OpCtor:
		fmt.Fprintf(&sb, "|%d:%s", n.Ctor, n.CtorName)
	}
	sb.WriteByte('.')
	io.WriteString(h, sb.String())
}

// stableItemSig is itemSig with process-stable node identity: nodes key
// by (document URI, stamp-free pre) instead of the heap address. Literal
// tables in compiled plans normally hold atomics only, but a context
// item bound as a node literal must still hash deterministically.
func stableItemSig(it xdm.Item) string {
	if it.Kind() == xdm.KNode {
		n := it.Node()
		return fmt.Sprintf("n%s:%d", n.D.URI, n.Pre)
	}
	return itemSig(it)
}
