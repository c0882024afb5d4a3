package algebra

import (
	"fmt"
	"sort"
	"strings"
)

// Explain renders a plan DAG as an indented operator tree, marking shared
// sub-plans. The rendering is stable and used by golden tests that mirror
// the paper's Figure 9.
func Explain(root *Node) string { return ExplainWith(root, nil) }

// ExplainWith is Explain with a per-node annotation hook: a non-empty
// string is appended to the node's line in braces. The optimizer's property
// inference supplies annotations (live columns, keys, loop dependence)
// without this package importing it.
func ExplainWith(root *Node, annotate func(*Node) string) string {
	var sb strings.Builder
	shared := sharedNodes(root)
	ids := map[*Node]int{}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if id, seen := ids[n]; seen {
			fmt.Fprintf(&sb, "^%d\n", id)
			return
		}
		if shared[n] {
			ids[n] = len(ids) + 1
			fmt.Fprintf(&sb, "#%d ", ids[n])
		}
		sb.WriteString(describe(n))
		if annotate != nil {
			if ann := annotate(n); ann != "" {
				sb.WriteString(" {" + ann + "}")
			}
		}
		sb.WriteByte('\n')
		for _, k := range n.Kids {
			walk(k, depth+1)
		}
	}
	walk(root, 0)
	return sb.String()
}

func sharedNodes(root *Node) map[*Node]bool {
	seen := map[*Node]int{}
	var walk func(n *Node)
	walk = func(n *Node) {
		seen[n]++
		if seen[n] > 1 {
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	out := map[*Node]bool{}
	for n, c := range seen {
		if c > 1 {
			out[n] = true
		}
	}
	return out
}

func describe(n *Node) string {
	switch n.Op {
	case OpLit:
		return fmt.Sprintf("lit(%s)×%d", strings.Join(n.LitCols, "|"), len(n.Rows))
	case OpDoc:
		return fmt.Sprintf("doc(%q)", n.URI)
	case OpRecBase:
		if n.LitCols != nil {
			return "keys"
		}
		return "recbase"
	case OpProject:
		parts := make([]string, len(n.Proj))
		for i, p := range n.Proj {
			if p.Out == p.In {
				parts[i] = p.Out
			} else {
				parts[i] = p.Out + ":" + p.In
			}
		}
		return "project[" + strings.Join(parts, ",") + "]"
	case OpAttach:
		return fmt.Sprintf("attach[%s=%s]", n.Col, n.Val)
	case OpSelect:
		return "select[" + n.Col + "]"
	case OpJoin, OpSemiJoin, OpAntiJoin:
		preds := make([]string, len(n.Preds))
		for i, p := range n.Preds {
			preds[i] = p.L + p.Cmp.String() + p.R
		}
		return n.Op.String() + "[" + strings.Join(preds, ",") + "]"
	case OpCross:
		return "cross"
	case OpDistinct:
		return "distinct"
	case OpUnion:
		return "union"
	case OpDiff:
		return "diff"
	case OpGroupCount:
		return fmt.Sprintf("count[%s/%s]", n.Col, strings.Join(n.GroupCols, ","))
	case OpNumOp:
		return fmt.Sprintf("numop[%s:%s(%s)]", n.Col, n.Num, strings.Join(n.NumArgs, ","))
	case OpRowTag:
		return "rowtag[" + n.Col + "]"
	case OpRowNum:
		return fmt.Sprintf("rownum[%s:⟨%s⟩/%s]", n.Col,
			strings.Join(n.SortCols, ","), strings.Join(n.GroupCols, ","))
	case OpStep:
		s := fmt.Sprintf("step[%s::%s", n.Axis, n.Test)
		if n.ValEqSet {
			s += fmt.Sprintf(" eq=%q", n.ValEq)
		}
		return s + "]"
	case OpIDLookup:
		return "id[" + n.ItemCol + "]"
	case OpCtor:
		kind := map[CtorKind]string{CtorElem: "element", CtorAttr: "attribute", CtorText: "text"}[n.Ctor]
		return fmt.Sprintf("ctor[%s %s]", kind, n.CtorName)
	case OpMu:
		if n.Delta {
			return "mu-delta"
		}
		return "mu"
	}
	return "?"
}

// Operators returns the multiset of operator names in a plan (diagnostics
// and tests).
func Operators(root *Node) map[string]int {
	out := map[string]int{}
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		out[describe(n)]++
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return out
}

// OperatorSummary renders an Operators multiset as a sorted one-line
// summary.
func OperatorSummary(ops map[string]int) string {
	keys := make([]string, 0, len(ops))
	for k := range ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		if ops[k] > 1 {
			parts[i] = fmt.Sprintf("%s×%d", k, ops[k])
		} else {
			parts[i] = k
		}
	}
	return strings.Join(parts, " ")
}
