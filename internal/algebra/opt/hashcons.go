package opt

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// hashCons merges structurally identical sub-plans into one shared node, so
// the executor's pointer-keyed memoization evaluates them once. Operators
// whose identity is semantic stay pointer-unique: ε mints fresh node
// identities per evaluation (merging two textually equal constructors would
// collapse distinct XML nodes into one), µ sites carry per-site
// instrumentation and recursion-base bindings, and OpRecBase leaves are the
// binding identity itself. Their *parents* still merge when they share the
// same child pointer.
func hashCons(root *algebra.Node) *algebra.Node {
	c := &conser{
		out:   map[*algebra.Node]*algebra.Node{},
		canon: map[string]*algebra.Node{},
		ids:   map[*algebra.Node]int{},
	}
	return c.rw(root)
}

type conser struct {
	out   map[*algebra.Node]*algebra.Node // input node → canonical node
	canon map[string]*algebra.Node        // signature → canonical node
	ids   map[*algebra.Node]int           // canonical node → stable id
}

func (c *conser) id(n *algebra.Node) int {
	if v, ok := c.ids[n]; ok {
		return v
	}
	v := len(c.ids) + 1
	c.ids[n] = v
	return v
}

func (c *conser) rw(n *algebra.Node) *algebra.Node {
	if v, ok := c.out[n]; ok {
		return v
	}
	if n.Op == algebra.OpRecBase {
		c.out[n] = n
		return n
	}
	kids := make([]*algebra.Node, len(n.Kids))
	same := true
	for i, k := range n.Kids {
		kids[i] = c.rw(k)
		if kids[i] != k {
			same = false
		}
	}
	m := n
	if !same {
		m = copyWithKids(n, kids)
	}
	if sig := c.signature(m); sig != "" {
		if prev, ok := c.canon[sig]; ok {
			c.out[n] = prev
			return prev
		}
		c.canon[sig] = m
	}
	c.out[n] = m
	return m
}

// signature renders a node's full semantic identity, children by canonical
// id; "" marks pointer-unique operators that must never merge.
func (c *conser) signature(n *algebra.Node) string {
	switch n.Op {
	case algebra.OpCtor, algebra.OpMu, algebra.OpRecBase:
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", n.Op)
	for _, k := range n.Kids {
		fmt.Fprintf(&sb, "|k%d", c.id(k))
	}
	switch n.Op {
	case algebra.OpLit:
		sb.WriteString("|" + strings.Join(n.LitCols, ","))
		for _, row := range n.Rows {
			sb.WriteByte('|')
			for _, it := range row {
				// Length-prefix each cell: string values may contain any
				// delimiter, and an ambiguous encoding would let two
				// different literal tables alias one signature.
				s := xdm.KeyOf(it).String()
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
		sb.WriteString("|" + n.Col + "=" + xdm.KeyOf(n.Val).String())
	case algebra.OpSelect:
		sb.WriteString("|" + n.Col)
	case algebra.OpJoin, algebra.OpSemiJoin, algebra.OpAntiJoin:
		for _, p := range n.Preds {
			fmt.Fprintf(&sb, "|%s~%d~%s", p.L, p.Cmp, p.R)
		}
	case algebra.OpGroupCount:
		sb.WriteString("|" + n.Col + "/" + strings.Join(n.GroupCols, ","))
	case algebra.OpNumOp:
		fmt.Fprintf(&sb, "|%s=%d(%s)", n.Col, n.Num, strings.Join(n.NumArgs, ","))
	case algebra.OpRowTag:
		sb.WriteString("|" + n.Col)
	case algebra.OpRowNum:
		fmt.Fprintf(&sb, "|%s/%s/%s/%v", n.Col,
			strings.Join(n.SortCols, ","), strings.Join(n.GroupCols, ","), n.Desc)
	case algebra.OpStep:
		fmt.Fprintf(&sb, "|%d::%d:%s:%s:%v:%s", n.Axis, n.Test.Kind, n.Test.Name, n.ItemCol,
			n.ValEqSet, n.ValEq)
	case algebra.OpIDLookup:
		sb.WriteString("|" + n.ItemCol + "/" + n.Col)
	}
	return sb.String()
}
