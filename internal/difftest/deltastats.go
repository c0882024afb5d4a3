package difftest

import (
	"fmt"
	"strings"
	"testing"

	ifpxq "repro"
	"repro/internal/obs"
)

// CheckRoundStats proves the optimizer's delta-fed step rewrite is
// invisible to the fixpoint accounting: for every (mode, parallelism)
// configuration of the relational engine, the per-round trace spans —
// site label, round number, nodes fed, delta size — must be identical
// between -O0 (which never carries the rewrite) and -O1 (which may feed
// eligible step chains from the round's delta). Only durations may
// differ. A rewrite that altered convergence, fed-back counts, or delta
// sizes would surface here round by round, with more precision than the
// end-to-end result comparison.
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
	type cell struct {
		mode ifpxq.Mode
		p    int
	}
	optimized := map[cell]run{} // the walk visits -O1 before -O0
	h.walk(func(k config, opts ifpxq.Options) {
		if k.engine != ifpxq.EngineRelational {
			return
		}
		tr := obs.NewTrace("deltastats")
		opts.Trace = tr
		got := run{h.eval(opts), roundSpans(tr)}
		if k.opt == ifpxq.Opt1 {
			optimized[cell{k.mode, k.p}] = got
			return
		}
		o1 := optimized[cell{k.mode, k.p}]
		sameOutcome(t, fmt.Sprintf("seed %d %v vs -O1", c.Seed, k), o1.out, got.out)
		if got.spans != o1.spans {
			t.Errorf("seed %d %v: per-round stats diverge between -O0 and -O1:\n-O0:\n%s\n-O1:\n%s",
				c.Seed, k, got.spans, o1.spans)
		}
	})
}

// roundSpans renders a trace's round spans with durations elided: one
// "label round fed delta" line per span, in recording order.
func roundSpans(tr *obs.Trace) string {
	sites := tr.Sites()
	var sb strings.Builder
	for _, r := range tr.Rounds() {
		label := "?"
		if r.Site >= 0 && r.Site < len(sites) {
			label = sites[r.Site]
		}
		fmt.Fprintf(&sb, "%s round=%d fed=%d delta=%d\n", label, r.Round, r.Fed, r.Delta)
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "dropped=%d\n", d)
	}
	return sb.String()
}
