package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestNilTraceAllocs pins the disabled-instrumentation contract: every
// recording call on a nil *Trace (and nil *PlanProfile) is a branch, not
// an allocation — the engines leave these calls inline on hot paths.
func TestNilTraceAllocs(t *testing.T) {
	var tr *Trace
	var p *PlanProfile
	n := testing.AllocsPerRun(1000, func() {
		tr.StartPhase("exec")()
		tr.AddPhase("exec", 0, 1)
		tr.AddRound(0, 1, 10, 5, 10, 100)
		tr.AddSite("µ")
		_ = tr.Now()
		_ = tr.ID()
		_ = p.Op(nil)
	})
	if n != 0 {
		t.Fatalf("nil-receiver recording allocated %.1f times per run; want 0", n)
	}
}

func TestTracePhasesAndSites(t *testing.T) {
	tr := NewTrace("q-test")
	if got := tr.ID(); got != "q-test" {
		t.Fatalf("ID = %q", got)
	}
	stop := tr.StartPhase("compile")
	stop()
	tr.AddPhase("exec", 5, 10)
	tr.AddPhase("exec", 20, 7)
	ph := tr.Phases()
	if len(ph) != 3 || ph[0].Name != "compile" || ph[1].Name != "exec" {
		t.Fatalf("phases = %+v", ph)
	}
	if ph[0].DurNs < 0 {
		t.Fatalf("negative phase duration: %+v", ph[0])
	}
	if ns := tr.PhaseNs(); ns["exec"] != 17 {
		t.Fatalf("PhaseNs merged exec = %d; want 17", ns["exec"])
	}
	s0 := tr.AddSite("µ∆")
	s1 := tr.AddSite("µ")
	if s0 != 0 || s1 != 1 {
		t.Fatalf("site indices = %d, %d", s0, s1)
	}
	if got := tr.Sites(); len(got) != 2 || got[0] != "µ∆" || got[1] != "µ" {
		t.Fatalf("sites = %v", got)
	}
	if tr.Now() <= 0 {
		t.Fatal("Now() not monotonic from start")
	}
}

// TestTraceConcurrentRounds hammers one trace from sharded writers under
// -race: recording must be safe when parallel fixpoint executions (e.g.
// concurrent xqd requests sharing a registry, or future sharded sites)
// write spans concurrently, and no round may be lost below capacity.
func TestTraceConcurrentRounds(t *testing.T) {
	tr := NewTrace("q-conc")
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := tr.AddSite("µ")
			for i := 0; i < perWorker; i++ {
				tr.AddRound(site, i, int64(i), int64(i/2), int64(i), 10)
				tr.AddPhase("exec", 0, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Rounds()); got != workers*perWorker {
		t.Fatalf("recorded %d rounds; want %d", got, workers*perWorker)
	}
	if got := len(tr.Phases()); got != workers*perWorker {
		t.Fatalf("recorded %d phases; want %d", got, workers*perWorker)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d rounds below capacity", tr.Dropped())
	}
}

// TestTraceRingOverflow pins the truncation marker: a runaway site records
// exactly the capacity and counts the overflow in Dropped.
func TestTraceRingOverflow(t *testing.T) {
	tr := NewTraceCap("q-over", 16)
	for i := 0; i < 100; i++ {
		tr.AddRound(0, i, 1, 1, 1, 1)
	}
	if got := len(tr.Rounds()); got != 16 {
		t.Fatalf("kept %d rounds; want 16", got)
	}
	if got := tr.Dropped(); got != 84 {
		t.Fatalf("Dropped = %d; want 84", got)
	}
	// The kept prefix is the earliest rounds — the decay shape readers care
	// about is at the front.
	if r := tr.Rounds()[15]; r.Round != 15 {
		t.Fatalf("last kept round = %+v; want round 15", r)
	}
}

func TestPlanProfile(t *testing.T) {
	p := NewPlanProfile()
	k1, k2 := new(int), new(int)
	st := p.Op(k1)
	st.Calls++
	st.RowsOut += 10
	p.Op(k1).SelfNs += 5
	p.Op(k2).Calls++
	got, ok := p.Stats(k1)
	if !ok || got.Calls != 1 || got.RowsOut != 10 || got.SelfNs != 5 {
		t.Fatalf("Stats(k1) = %+v, %v", got, ok)
	}
	if _, ok := p.Stats(new(int)); ok {
		t.Fatal("Stats hit for unrecorded key")
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	var nilP *PlanProfile
	if nilP.Op(k1) != nil || nilP.Len() != 0 {
		t.Fatal("nil profile not inert")
	}
}

func TestNextQueryID(t *testing.T) {
	a, b := NextQueryID(), NextQueryID()
	if a == b || !strings.HasPrefix(a, "q-") {
		t.Fatalf("ids %q, %q", a, b)
	}
}
