package opt_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/difftest"
	"repro/internal/xq/parser"
)

// compileRaw compiles src to its verbatim plan, auto mode, no optimizer.
func compileRaw(tb testing.TB, src string) *algebra.Plan {
	tb.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		tb.Fatalf("parse %q: %v", src, err)
	}
	p, err := algebra.CompilePlan(m, algebra.ModeAuto, false, nil, nil)
	if err != nil {
		tb.Fatalf("compile %q: %v", src, err)
	}
	return p
}

// TestOptimizerPasses pins how many rule passes each golden takes,
// counting the last pass, which only confirms that nothing changed. Every
// rule reads facts that are current in the pass it fires in; a rule that
// went back to stale ones would show here as an extra pass.
func TestOptimizerPasses(t *testing.T) {
	want := map[string]int{"bidder": 2, "dialogs": 2, "curriculum": 2, "hospital": 2}
	for _, g := range goldenQueries {
		if got := opt.Passes(compileRaw(t, g.query)); got != want[g.name] {
			t.Errorf("%s: optimizer ran %d passes, want %d", g.name, got, want[g.name])
		}
	}
}

// TestOptimizeIsIdempotent: the rewriter run again over an optimized plan
// changes nothing, so one pass confirms it and the rendering is the same.
func TestOptimizeIsIdempotent(t *testing.T) {
	var queries []string
	for _, g := range goldenQueries {
		queries = append(queries, g.query)
	}
	queries = append(queries, differentialQueries...)
	for seed := int64(1); seed <= 48; seed++ {
		if c := difftest.Generate(seed); !c.RegularXPath {
			queries = append(queries, c.Query)
		}
	}
	for _, src := range queries {
		p := compileRaw(t, src)
		opt.Optimize(p)
		once := algebra.Explain(p.Root)
		if passes := opt.Passes(p); passes != 1 {
			t.Errorf("re-optimizing took %d passes, want 1: %s", passes, src)
		}
		if twice := algebra.Explain(p.Root); twice != once {
			t.Errorf("re-optimizing changed the plan of %s:\n--- once ---\n%s--- twice ---\n%s", src, once, twice)
		}
	}
}

// BenchmarkOptimize times opt.Optimize alone on the four goldens; each
// iteration compiles a fresh plan with the timer stopped.
func BenchmarkOptimize(b *testing.B) {
	for _, g := range goldenQueries {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := compileRaw(b, g.query)
				b.StartTimer()
				opt.Optimize(p)
			}
		})
	}
}

// BenchmarkCompile times algebra.CompileModule alone on the four goldens,
// each parsed once outside the timer: the compiler's share of what
// BenchmarkOptimize's setup builds.
func BenchmarkCompile(b *testing.B) {
	for _, g := range goldenQueries {
		b.Run(g.name, func(b *testing.B) {
			m, err := parser.Parse(g.query)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := algebra.CompileModule(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
