package difftest

import (
	"fmt"
	"strings"
	"testing"

	ifpxq "repro"
	"repro/internal/obs"
)

// CheckRoundStats proves the optimizer is invisible to the fixpoint
// accounting: for every mode of the relational engine, the per-round trace
// spans — site label, round number, nodes fed, delta size, and the keys a
// tabled site evaluated — must be identical between -O0 (the compiler's
// plan) and -O1 (the rewritten one). Only durations may differ. A rewrite
// that altered convergence, fed-back counts, delta sizes, or what the
// node-keyed µ answers from its memo would surface here round by round,
// with more precision than the end-to-end result comparison.
func CheckRoundStats(t testing.TB, c Case) {
	t.Helper()
	if c.RegularXPath {
		return // translated plans share the relational pipeline via difftest.Check
	}
	h := load(t, c)
	type run struct {
		out   outcome
		spans string
	}
	optimized := map[ifpxq.Mode]run{} // the walk visits -O1 before -O0
	h.walk(func(k config, opts ifpxq.Options) {
		if k.engine != ifpxq.EngineRelational {
			return
		}
		tr := obs.NewTrace("deltastats")
		opts.Trace = tr
		got := run{h.eval(opts), roundSpans(tr)}
		if k.opt == ifpxq.Opt1 {
			optimized[k.mode] = got
			return
		}
		o1 := optimized[k.mode]
		sameOutcome(t, fmt.Sprintf("seed %d %v vs -O1", c.Seed, k), o1.out, got.out)
		if got.spans != o1.spans {
			t.Errorf("seed %d %v: per-round stats diverge between -O0 and -O1:\n-O0:\n%s\n-O1:\n%s",
				c.Seed, k, got.spans, o1.spans)
		}
	})
}

// roundSpans renders a trace's round spans with durations elided: one
// "label round fed delta evaluated" line per span, in recording order.
func roundSpans(tr *obs.Trace) string {
	sites := tr.Sites()
	var sb strings.Builder
	for _, r := range tr.Rounds() {
		label := "?"
		if r.Site >= 0 && r.Site < len(sites) {
			label = sites[r.Site]
		}
		fmt.Fprintf(&sb, "%s round=%d fed=%d delta=%d evaluated=%d\n", label, r.Round, r.Fed, r.Delta, r.Evaluated)
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "dropped=%d\n", d)
	}
	return sb.String()
}
