package ifpxq

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/xdm"
	"repro/internal/xmlgen"
)

// TestConcurrentIndexCountsAddUp: each evaluation counts its index probes
// and fallbacks on its own and adds them to the process totals when it
// ends, so evaluations running side by side on both engines must move the
// totals by exactly the sum of what each moves alone.
func TestConcurrentIndexCountsAddUp(t *testing.T) {
	docs := DocsFromStrings(map[string]string{"auction.xml": xmlgen.Auction(xmlgen.FromScale(0.001))})
	q := MustParse(bench.BidderNetworkQuery)
	eval := func(engine Engine) {
		if _, err := q.Eval(Options{Engine: engine, Docs: docs}); err != nil {
			t.Error(err)
		}
	}
	alone := map[Engine][2]int64{}
	for _, engine := range bothEngines {
		p0, f0 := xdm.IndexCounters()
		eval(engine)
		p, f := xdm.IndexCounters()
		alone[engine] = [2]int64{p - p0, f - f0}
	}
	if c := alone[EngineInterpreter]; c[0]+c[1] == 0 {
		t.Fatal("the interpreter's bidder query made no index-eligible step")
	}
	const runs = 4
	var want [2]int64
	p0, f0 := xdm.IndexCounters()
	var wg sync.WaitGroup
	for _, engine := range bothEngines {
		for range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eval(engine)
			}()
			want[0] += alone[engine][0]
			want[1] += alone[engine][1]
		}
	}
	wg.Wait()
	if p, f := xdm.IndexCounters(); p-p0 != want[0] || f-f0 != want[1] {
		t.Fatalf("concurrent evaluations moved the totals by %d probes, %d fallbacks; alone they add up to %d, %d",
			p-p0, f-f0, want[0], want[1])
	}
}
