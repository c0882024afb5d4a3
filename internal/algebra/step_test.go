package algebra

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xq/ast"
	"repro/internal/xq/parser"
)

// TestExpandRunsMatchesGather pins expandRuns — the run-length twin of
// gather — to gather itself: replicating row i counts[i] times must equal
// gathering an index vector with i repeated counts[i] times, for packed,
// generic, and empty columns alike.
func TestExpandRunsMatchesGather(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		docs := []*xdm.Document{
			randDoc(rng, 20+rng.Intn(40), "a.xml"),
			randDoc(rng, 10+rng.Intn(20), "b.xml"),
		}
		rows := rng.Intn(40)
		tab, _ := randTable(rng, docs, 1+rng.Intn(4), rows)
		counts := make([]int32, rows)
		total := 0
		var idx []int32
		for i := range counts {
			counts[i] = int32(rng.Intn(4)) // includes 0: rows that fan out to nothing
			total += int(counts[i])
			for j := int32(0); j < counts[i]; j++ {
				idx = append(idx, int32(i))
			}
		}
		for c := 0; c < len(tab.Cols); c++ {
			col := tab.ColAt(c)
			got, want := col.expandRuns(counts, total), col.gather(idx)
			if got.Len() != want.Len() {
				t.Fatalf("trial %d col %d: expandRuns len %d, gather len %d",
					trial, c, got.Len(), want.Len())
			}
			if total > 0 && got.IsPacked() != want.IsPacked() {
				t.Fatalf("trial %d col %d: packedness diverges", trial, c)
			}
			for i := 0; i < got.Len(); i++ {
				if !itemsIdentical(got.Item(i), want.Item(i)) {
					t.Fatalf("trial %d col %d row %d: expandRuns diverges from gather", trial, c, i)
				}
			}
		}
	}
}

// segDocs serves the step/fixpoint fixtures: the shared shop/curriculum
// documents plus a wide document with thousands of step rows and a nested
// one for child-axis closures.
func segDocs(t testing.TB) func(string) (*xdm.Document, error) {
	t.Helper()
	base := docs(t)
	cache := map[string]*xdm.Document{}
	return func(uri string) (*xdm.Document, error) {
		if d, ok := cache[uri]; ok {
			return d, nil
		}
		var src string
		switch uri {
		case "wide.xml":
			var sb strings.Builder
			sb.WriteString("<r>")
			for i := 0; i < 1500; i++ {
				fmt.Fprintf(&sb, "<i k=\"%d\"><t>v%d</t></i>", i%7, i)
			}
			sb.WriteString("</r>")
			src = sb.String()
		case "nest.xml":
			src = "<n><n><n><n/><n/></n><n/></n><n><n/></n></n>"
		default:
			return base(uri)
		}
		d, err := xmldoc.ParseString(src, uri)
		if err != nil {
			return nil, err
		}
		cache[uri] = d
		return d, nil
	}
}

// walkPlan visits every node of a plan DAG once.
func walkPlan(root *Node, visit func(*Node)) {
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		visit(n)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
}

// evalWith compiles src and evaluates it with the given mode and plan
// mutation hook (nil = verbatim plan).
func evalWith(t *testing.T, src string, mode core.Mode, mutate func(*Plan)) (xdm.Sequence, []MuRun) {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, en := compileEngine(t, m, mode, mutate, Options{Docs: segDocs(t)})
	seq, runs, err := en.Eval()
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return seq, runs
}

// TestStepFromGenericColumn steps from a context column the packed
// representation cannot hold — node rows interleaved with atomic rows — so
// evalStep takes its colBuilder assembly: atomic rows match nothing, node
// rows fan out exactly as the step kernel says, the carried column is
// run-expanded alongside, and a repeated context node (served by the segment
// memo) matches like its first occurrence.
func TestStepFromGenericColumn(t *testing.T) {
	d, err := segDocs(t)("wide.xml")
	if err != nil {
		t.Fatal(err)
	}
	test := ast.NodeTest{Kind: ast.TestName, Name: "t"}
	var rows [][]xdm.Item
	var want []string
	r := xdm.NodeRef{D: d, Pre: 1}
	for i, pre := range xdm.Step(nil, r, ast.AxisChild, ast.NodeTest{Kind: ast.TestName, Name: "i"}, true, nil) {
		ctxs := []xdm.NodeRef{{D: d, Pre: pre}}
		if i%5 == 0 {
			ctxs = append(ctxs, ctxs[0])
		}
		for _, c := range ctxs {
			tag := xdm.NewInteger(int64(len(rows)))
			rows = append(rows, []xdm.Item{tag, xdm.NewNode(c)})
			for _, m := range xdm.Step(nil, c, ast.AxisChild, test, true, nil) {
				want = append(want, fmt.Sprintf("%d:%d", tag.Int(), m))
			}
		}
		if i%3 == 0 {
			rows = append(rows, []xdm.Item{xdm.NewInteger(int64(len(rows))), xdm.NewString("atom")})
		}
	}
	lit := &Node{Op: OpLit, LitCols: []string{"tag", "item"}, Rows: rows}
	step := &Node{Op: OpStep, Kids: []*Node{lit}, Axis: ast.AxisChild, Test: test, ItemCol: "item"}
	ctx := &ExecContext{}
	in, err := Eval(lit, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if in.ColAt(in.Col("item")).IsPacked() {
		t.Fatal("fixture context column is packed; the test would not reach the generic path")
	}
	out, err := Eval(step, ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < out.Len(); i++ {
		got = append(got, fmt.Sprintf("%d:%d", out.At(i, 0).Int(), out.At(i, 1).Node().Pre))
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("generic-context step diverges: %d rows, want %d", len(got), len(want))
	}
}
