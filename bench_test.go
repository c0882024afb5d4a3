// Benchmarks regenerating the paper's evaluation (Table 2) cell by cell
// through internal/bench's one cell runner — `go run ./cmd/ifpbench` prints
// the same cells as a table (see EXPERIMENTS.md "Measuring").
//
// Ablation benches below measure three design choices of the relational
// engine: the cost of the distributivity checks themselves, strict vs.
// extended algebraic check, and loop-invariant hoisting in µ/µ∆ (via
// forced plan invalidation).
package ifpxq

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/dist"
	"repro/internal/xq/parser"

	"repro/internal/algebra"
	"repro/internal/xq/ast"
	"repro/internal/xq/interp"
)

// findFixpoint locates the first fixpoint site in a module.
func findFixpoint(m *ast.Module) *ast.Fixpoint {
	var out *ast.Fixpoint
	scan := func(e ast.Expr) {
		ast.Walk(e, func(x ast.Expr) bool {
			if fp, ok := x.(*ast.Fixpoint); ok && out == nil {
				out = fp
			}
			return out == nil
		})
	}
	scan(m.Body)
	for _, f := range m.Funcs {
		scan(f.Body)
	}
	return out
}

// BenchmarkTable2 is Table 2 under `go test -bench`: one sub-benchmark per
// cell id (BenchmarkTable2/T2.4/rel/Delta) at the default configuration
// (p=1 opt=1 ix=1), through the same bench.Prepared.Bench and at the same
// document scales ifpbench measures, so a number here and a BENCH_<n>.json
// entry with that id are the same measurement. Each reports the paper's
// "nodes fed back" column as a nodes-fed metric.
func BenchmarkTable2(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			prep, err := bench.Prepare(e)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range bench.Cells(bench.Default) {
				b.Run(fmt.Sprintf("%s/%s", c.Engine, c.Alg), prep.Bench(c, new(bench.Outcome)))
			}
		})
	}
}

func auctionXML(scale float64) string { return xmlgen.Auction(xmlgen.FromScale(scale)) }

// ---- ablations --------------------------------------------------------------

// BenchmarkAblationDistributivityChecks measures the cost of the two
// distributivity approximations themselves (they run once per query plan).
func BenchmarkAblationDistributivityChecks(b *testing.B) {
	m, err := parser.Parse(bench.BidderNetworkQuery)
	if err != nil {
		b.Fatal(err)
	}
	fp := findFixpoint(m)
	if fp == nil {
		b.Fatal("no fixpoint in bidder query")
	}
	b.Run("syntactic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.Check(fp.Body, fp.Var, dist.ModuleResolver(m))
		}
	})
	b.Run("algebraic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.CompileModule(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStrictVsExtended compares admission under the strict
// (Table 1 exact) and extended (left-of-\ pushes) algebraic rules across
// the benchmark query corpus; the work measured is the check itself.
func BenchmarkAblationStrictVsExtended(b *testing.B) {
	queries := []string{bench.BidderNetworkQuery, bench.DialogsQuery, bench.CurriculumQuery, bench.HospitalQuery}
	var plans []*algebra.Plan
	for _, src := range queries {
		m, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		p, err := algebra.CompileModule(m)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p)
	}
	for _, strict := range []bool{true, false} {
		name := "extended"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			admitted := 0
			for i := 0; i < b.N; i++ {
				admitted = 0
				for _, p := range plans {
					for _, site := range p.Mus {
						if algebra.CheckDistributive(site.Mu, strict) {
							admitted++
						}
					}
				}
			}
			b.ReportMetric(float64(admitted), "admitted")
		})
	}
}

// BenchmarkAblationHoisting contrasts µ∆ with loop-invariant hoisting
// intact (sub-plans independent of the recursion base stay memoized across
// rounds) against a context that discards the whole memo each round.
func BenchmarkAblationHoisting(b *testing.B) {
	xml := auctionXML(0.002)
	m, err := parser.Parse(bench.BidderNetworkQuery)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := xmldoc.ParseString(xml, "auction.xml")
	if err != nil {
		b.Fatal(err)
	}
	docs := func(string) (*xdm.Document, error) { return doc, nil }
	b.Run("hoisted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := algebra.CompilePlan(m, core.ModeDelta, false, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := algebra.NewEngineFromPlan(plan, algebra.Options{Docs: docs}).Eval(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The no-hoisting variant is approximated by re-compiling and
	// re-running from scratch per iteration AND running the interpreter,
	// which recomputes invariant subexpressions per payload call.
	b.Run("interp-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			en := interp.New(m, interp.Options{Mode: interp.ModeDelta, Docs: docs})
			if _, err := en.Eval(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// childBody is the bare payload $x/* with no query machinery: children of
// the feed, handed back as iteration 0 of a batch, as the interpreter does.
type childBody struct{ out xdm.Family }

func (b *childBody) Step(feed *xdm.Family) (*xdm.Family, error) {
	b.out.Reset()
	for _, n := range feed.Nodes(0) {
		for _, c := range n.Children() {
			if err := b.out.Add(0, xdm.NewNode(c)); err != nil {
				return nil, err
			}
		}
	}
	return &b.out, nil
}

// BenchmarkIFPCore measures core's fixpoint loop over a synthetic linked
// structure (no query machinery): the asymptotic gap the paper's §2.1
// analysis predicts.
func BenchmarkIFPCore(b *testing.B) {
	// Build a chain document c0 → c1 → … → c399 via child nesting.
	bld := xdm.NewBuilder("chain")
	const n = 400
	for i := 0; i < n; i++ {
		bld.StartElement("n")
	}
	for i := 0; i < n; i++ {
		bld.EndElement()
	}
	doc := bld.Done()
	var seed xdm.Family
	if err := seed.Add(0, xdm.NewNode(xdm.NodeRef{D: doc, Pre: 1})); err != nil {
		b.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.Naive, core.Delta} {
		b.Run(strings.ToLower(alg.String()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sites := core.NewSites[int, *core.Site](core.Config{})
				x := sites.Enter(0, func() (*core.Site, string) { return &core.Site{Algorithm: alg}, "" })
				if _, err := core.Run(x, &seed, &childBody{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
