package algebra

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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
func evalWith(t *testing.T, src string, mode FixpointMode, mutate func(*Plan)) (xdm.Sequence, []MuRun) {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	en, err := NewEngine(m, Options{Mode: mode, Docs: segDocs(t), Optimize: mutate})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
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
	for i, pre := range xdm.Step(nil, r, ast.AxisChild, ast.NodeTest{Kind: ast.TestName, Name: "i"}, true) {
		ctxs := []xdm.NodeRef{{D: d, Pre: pre}}
		if i%5 == 0 {
			ctxs = append(ctxs, ctxs[0])
		}
		for _, c := range ctxs {
			tag := xdm.NewInteger(int64(len(rows)))
			rows = append(rows, []xdm.Item{tag, xdm.NewNode(c)})
			for _, m := range xdm.Step(nil, c, ast.AxisChild, test, true) {
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

// aliasDeltas rewrites recursion-base occurrences onto OpRecDelta leaves —
// the executor-side shape the optimizer's delta-feed rewrite produces. With
// all=true every occurrence moves to the delta
// feed (the body stops reading the base entirely); with all=false only the
// first DFS occurrence moves, so the executor must bind base and delta
// feeds side by side.
func aliasDeltas(all bool) func(*Plan) {
	return func(p *Plan) {
		deltas := map[*Node]*Node{}
		done := false
		walkPlan(p.Root, func(n *Node) {
			for i, k := range n.Kids {
				if k.Op != OpRecBase || (done && !all) {
					continue
				}
				d, ok := deltas[k]
				if !ok {
					d = &Node{Op: OpRecDelta, RecBase: k}
					deltas[k] = d
				}
				n.Kids[i] = d
				done = true
			}
		})
	}
}

// TestRecDeltaFeedMatches moves recursion-base occurrences onto the round's
// delta feed and pins results and fixpoint statistics against the
// unrewritten plan. At µ∆ sites evalMu passes body(delta, delta), so the
// substitution is exact aliasing for any body; the naïve cases are the
// pure-closure shape for which the paper's distributivity argument makes
// the semi-naive feed answer- and stats-preserving.
func TestRecDeltaFeedMatches(t *testing.T) {
	cases := []struct {
		query string
		mode  FixpointMode
		all   bool
	}{
		{`count(with $x seeded by doc("nest.xml")/n recurse $x/n)`, ModeNaive, true},
		{`count(with $x seeded by doc("nest.xml")/n recurse $x/n)`, ModeNaive, false},
		{`count(with $x seeded by doc("nest.xml")/n recurse $x/n)`, ModeDelta, true},
		{`count(with $x seeded by doc("nest.xml")/n recurse $x/n)`, ModeDelta, false},
		{`with $x seeded by doc("curriculum.xml")//course[@code = "c1"]
		  recurse $x/id(./prerequisites/pre_code)`, ModeDelta, true},
	}
	for _, c := range cases {
		fired := 0
		hook := func(pl *Plan) {
			aliasDeltas(c.all)(pl)
			walkPlan(pl.Root, func(n *Node) {
				if n.Op == OpRecDelta {
					fired++
				}
			})
		}
		want, wantRuns := evalWith(t, c.query, c.mode, nil)
		got, gotRuns := evalWith(t, c.query, c.mode, hook)
		if fired == 0 {
			t.Fatalf("%s: aliasDeltas rewrote nothing — vacuous case", c.query)
		}
		w, g := xmldoc.SerializeSequence(want), xmldoc.SerializeSequence(got)
		if w != g {
			t.Errorf("%s (mode=%v): delta feed diverges:\nbase:  %s\ndelta: %s", c.query, c.mode, w, g)
		}
		if len(wantRuns) != len(gotRuns) {
			t.Fatalf("%s (mode=%v): µ site count diverges", c.query, c.mode)
		}
		for i := range wantRuns {
			if wantRuns[i].Stats != gotRuns[i].Stats {
				t.Errorf("%s (mode=%v): fixpoint stats diverge: %+v vs %+v",
					c.query, c.mode, wantRuns[i].Stats, gotRuns[i].Stats)
			}
		}
	}
}

// TestRecDeltaOutsideFixpointErrors pins the guard: a ∆ leaf evaluated with
// no enclosing fixpoint binding is a plan bug and must fail loudly.
func TestRecDeltaOutsideFixpointErrors(t *testing.T) {
	rb := &Node{Op: OpRecBase}
	en := NewEngineFromPlan(&Plan{Root: &Node{Op: OpRecDelta, RecBase: rb}}, Options{})
	if _, _, err := en.Eval(); err == nil || !strings.Contains(err.Error(), "outside fixpoint") {
		t.Fatalf("want outside-fixpoint error, got %v", err)
	}
}
