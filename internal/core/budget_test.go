package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/leaktest"
	"repro/internal/xdm"
)

// chainFixture is a path graph 0→1→…→n-1 seeded at vertex 0: the fixpoint
// needs exactly n-1 productive rounds, so round and row budgets have
// predictable trip points.
func chainFixture(n int) (xdm.Sequence, Payload) {
	_, verts := graphDoc(n)
	adj := make([][]int, n)
	for i := 0; i < n-1; i++ {
		adj[i] = []int{i + 1}
	}
	return xdm.Sequence{xdm.NewNode(verts[0])}, successorPayload(verts, adj)
}

func TestBudgetDeadlineTruncates(t *testing.T) {
	seed, body := chainFixture(10)
	for _, alg := range []Algorithm{Naive, Delta} {
		budget := xdm.NewBudget(time.Now().Add(-time.Millisecond), 0, 0)
		res, _, err := runWith(alg, seed, body, Config{Budget: budget}, 0)
		if err == nil {
			t.Fatalf("%v: expired deadline did not truncate", alg)
		}
		if xdm.CodeOf(err) != xdm.ErrDeadline {
			t.Fatalf("%v: code = %v, want ErrDeadline (err: %v)", alg, xdm.CodeOf(err), err)
		}
		if res != nil {
			t.Fatalf("%v: truncated run returned a result", alg)
		}
	}
}

func TestBudgetRoundsTruncateIdentically(t *testing.T) {
	seed, body := chainFixture(10)
	var msgs []string
	for _, alg := range []Algorithm{Naive, Delta} {
		budget := xdm.NewBudget(time.Time{}, 3, 0)
		_, st, err := runWith(alg, seed, body, Config{Budget: budget}, 0)
		if err == nil {
			t.Fatalf("%v: 3-round budget did not truncate a depth-9 closure", alg)
		}
		if xdm.CodeOf(err) != xdm.ErrRounds {
			t.Fatalf("%v: code = %v, want ErrRounds (err: %v)", alg, xdm.CodeOf(err), err)
		}
		// Partial stats must reflect the rounds that did run.
		if st.PayloadCalls == 0 {
			t.Fatalf("%v: truncated run reports zero payload calls", alg)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[1] != msgs[0] {
		t.Fatalf("truncation messages diverge across algorithms:\n%q\nvs\n%q", msgs[1], msgs[0])
	}
}

func TestBudgetRowsTruncateIdentically(t *testing.T) {
	seed, body := chainFixture(20)
	var msgs []string
	for _, alg := range []Algorithm{Naive, Delta} {
		budget := xdm.NewBudget(time.Time{}, 0, 5)
		_, _, err := runWith(alg, seed, body, Config{Budget: budget}, 0)
		if err == nil {
			t.Fatalf("%v: 5-row budget did not truncate a 20-node closure", alg)
		}
		if xdm.CodeOf(err) != xdm.ErrRows {
			t.Fatalf("%v: code = %v, want ErrRows (err: %v)", alg, xdm.CodeOf(err), err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[1] != msgs[0] {
		t.Fatalf("truncation messages diverge across algorithms:\n%q\nvs\n%q", msgs[1], msgs[0])
	}
}

func TestBudgetGenerousIsInvisible(t *testing.T) {
	seed, body := chainFixture(12)
	for _, alg := range []Algorithm{Naive, Delta} {
		free, freeStats, err := runWith(alg, seed, body, Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		budget := xdm.NewBudget(time.Now().Add(time.Hour), 1<<20, 1<<40)
		got, gotStats, err := runWith(alg, seed, body, Config{Budget: budget}, 0)
		if err != nil {
			t.Fatalf("%v: generous budget errored: %v", alg, err)
		}
		if len(got) != len(free) || gotStats != freeStats {
			t.Fatalf("%v: generous budget changed the outcome: %d rows %+v vs %d rows %+v",
				alg, len(got), gotStats, len(free), freeStats)
		}
	}
}

// TestBudgetTruncationUnwinds checks the unwinding contract: a budget
// tripping mid-computation returns a typed budget error and no result,
// leaves no goroutine behind, and does not disturb the next run.
func TestBudgetTruncationUnwinds(t *testing.T) {
	seed, body := chainFixture(40)
	before := runtime.NumGoroutine()
	for _, alg := range []Algorithm{Naive, Delta} {
		free, freeStats, err := runWith(alg, seed, body, Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []*xdm.Budget{
			xdm.NewBudget(time.Time{}, 4, 0),
			xdm.NewBudget(time.Time{}, 0, 9),
			xdm.NewBudget(time.Now().Add(-time.Second), 0, 0),
		} {
			res, _, err := runWith(alg, seed, body, Config{Budget: budget}, 0)
			if !xdm.IsBudget(err) || res != nil {
				t.Fatalf("%v: got result of %d items and error %v, want a budget error alone", alg, len(res), err)
			}
			again, againStats, err := runWith(alg, seed, body, Config{}, 0)
			if err != nil || len(again) != len(free) || againStats != freeStats {
				t.Fatalf("%v: the run after a truncation diverges: %d rows %+v (%v)", alg, len(again), againStats, err)
			}
		}
	}
	leaktest.Wait(t, before)
}
