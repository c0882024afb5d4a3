package difftest

import (
	"fmt"
	"testing"

	ifpxq "repro"
	"repro/internal/obs"
)

// CheckTracing proves the observability layer is read-only: every
// (engine, mode, optimizer level) configuration is evaluated
// twice — once untraced, once with a live span recorder — and the two
// runs must agree byte-for-byte on the result string, on the error, and
// on the fixpoint statistics. Tracing that perturbed evaluation order,
// deduplication, or budget accounting would show up here as a divergence.
//
// It also checks the trace is not silently inert: whenever a traced
// configuration reports fixpoint sites that actually iterated, the trace
// must have captured round spans for them (unless they overflowed the
// trace's round capacity, which is counted in Dropped).
func CheckTracing(t testing.TB, c Case) {
	t.Helper()
	h := load(t, c)
	h.walk(func(k config, opts ifpxq.Options) {
		plain := h.eval(opts)
		tr := obs.NewTrace("difftest")
		opts.Trace = tr
		traced := h.eval(opts)
		sameOutcome(t, fmt.Sprintf("seed %d %v: traced vs plain", c.Seed, k), plain, traced)

		// A trace attached to a run that iterated fixpoints must hold the
		// round spans (modulo capacity overflow).
		iterated := false
		for _, fp := range traced.fixpoints {
			if fp.Stats.Depth > 0 {
				iterated = true
			}
		}
		if iterated && len(tr.Rounds()) == 0 && tr.Dropped() == 0 {
			t.Errorf("seed %d %v: fixpoints iterated but the trace recorded no rounds", c.Seed, k)
		}
	})
}
