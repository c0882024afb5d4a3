package opt_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ifpxq "repro"
	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the golden explain files")

// goldenQueries are the paper's four query families (Section 5). Their
// pinned renderings cover the operator summary, DAG sharing markers
// (#n/^n), the optimizer's property annotations, and the raw-vs-optimized
// operator counts — any plan-shape regression diffs against these files
// (`make explain`; regenerate deliberately with `go test -run
// TestGoldenExplain -update ./internal/algebra/opt`).
var goldenQueries = []struct {
	name  string
	query string
}{
	{"bidder", bench.BidderNetworkQuery},
	{"dialogs", bench.DialogsQuery},
	{"curriculum", bench.CurriculumQuery},
	{"hospital", bench.HospitalQuery},
}

// renderGolden produces the full explain artifact for one query through
// Query.Explain, the rendering `xq -explain` prints: raw and optimized
// plans with property annotations plus both operator summaries.
func renderGolden(t *testing.T, query string) string {
	t.Helper()
	q, err := ifpxq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := q.Explain(ifpxq.ModeAuto, ifpxq.Opt1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("-- raw plan --\n")
	sb.WriteString(ex.Raw)
	sb.WriteString("-- optimized plan --\n")
	sb.WriteString(ex.Optimized)
	fmt.Fprintf(&sb, "-- operators: raw=%d optimized=%d --\n", countOps(ex.RawOps), countOps(ex.OptimizedOps))
	sb.WriteString("raw: " + algebra.OperatorSummary(ex.RawOps) + "\n")
	sb.WriteString("optimized: " + algebra.OperatorSummary(ex.OptimizedOps) + "\n")
	return sb.String()
}

func countOps(ops map[string]int) int {
	total := 0
	for _, c := range ops {
		total += c
	}
	return total
}

func TestGoldenExplain(t *testing.T) {
	for _, g := range goldenQueries {
		t.Run(g.name, func(t *testing.T) {
			got := renderGolden(t, g.query)
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan shape changed for %s (run `make explain` to inspect, `go test -run TestGoldenExplain -update ./internal/algebra/opt` to accept):\n--- got ---\n%s\n--- want ---\n%s",
					g.name, got, string(want))
			}
		})
	}
}

// TestGoldenCoversMarkers pins that the golden artifacts actually exercise
// what they exist to guard: sharing markers, annotations, µ∆ rendering,
// and a strictly shrinking operator count.
func TestGoldenCoversMarkers(t *testing.T) {
	out := renderGolden(t, bench.BidderNetworkQuery)
	for _, want := range []string{"#1 ", "^1", "key=", "rec", "mu"} {
		if !strings.Contains(out, want) {
			t.Errorf("bidder golden misses %q", want)
		}
	}
}

// TestGoldenBodiesCrossNothing: in the optimized plans of the four goldens
// no cross depends on a fixpoint's recursion base or key leaf — a hoisted
// step's candidates meet each round's iterations through a value join,
// never through iterations × candidates. A cross of two top-loop inputs
// (the document leaf) may sit below a body; it is evaluated once.
func TestGoldenBodiesCrossNothing(t *testing.T) {
	for _, g := range goldenQueries {
		p := compileRaw(t, g.query)
		opt.Optimize(p)
		for _, s := range p.Mus {
			memo := map[*algebra.Node]bool{}
			var rec func(n *algebra.Node) bool
			rec = func(n *algebra.Node) bool {
				if v, ok := memo[n]; ok {
					return v
				}
				v := n == s.Mu.RecBase || n == s.Mu.Keys
				for _, k := range n.Kids {
					v = rec(k) || v
				}
				memo[n] = v
				if n.Op == algebra.OpCross && v {
					t.Errorf("%s: a cross in the µ body reads the recursion:\n%s", g.name, algebra.Explain(n))
				}
				return v
			}
			rec(s.Mu.Kids[1])
		}
	}
}
