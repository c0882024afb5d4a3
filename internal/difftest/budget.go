package difftest

import (
	"fmt"
	"testing"
	"time"

	ifpxq "repro"
	"repro/internal/xdm"
)

// CheckBudgets asserts the resource-budget contract differentially:
//
//   - budgets that are not hit change nothing: under generous limits every
//     configuration returns the byte-identical result and identical
//     fixpoint statistics of its budget-free baseline;
//   - budgets that are hit truncate identically: an already-expired
//     deadline, a round budget below the recursion depth, and a row budget
//     below the fixpoint size each fail in every (engine, mode, optimizer
//     level) configuration with the same typed code and the
//     byte-identical error message, and return a non-nil partial Result.
//
// The round and row grids only run on cases where the trip point is
// engine-independent by construction — exactly one fixpoint site, executed
// once, with the same depth and result size in every cell — because row
// accounting legitimately differs across engines (the relational executor
// charges every materialized table, the interpreter charges fixpoint feeds
// and growth), so only budgets strictly below what every cell must consume
// are guaranteed to trip everywhere.
func CheckBudgets(t testing.TB, c Case) {
	t.Helper()
	h := load(t, c)

	// Budget-free baselines per cell, from the walk's first configuration
	// of each (-O1). A case some cell cannot evaluate is Check's
	// business, not this harness's — skip it here.
	base := map[combo]outcome{}
	var combos []combo
	evaluable := true
	h.walk(func(k config, opts ifpxq.Options) {
		if _, seen := base[k.combo]; seen || !evaluable {
			return
		}
		base[k.combo] = h.eval(opts)
		combos = append(combos, k.combo)
		evaluable = base[k.combo].err == ""
	})
	if !evaluable {
		return
	}

	// 1. Generous budgets are invisible: byte-identical results and stats.
	h.walk(func(k config, opts ifpxq.Options) {
		opts.Deadline = time.Now().Add(time.Hour)
		opts.MaxRounds = 1 << 20
		opts.MaxRows = 1 << 40
		sameOutcome(t, fmt.Sprintf("seed %d %v: generous budget vs none", c.Seed, k), base[k.combo], h.eval(opts))
	})

	// checkTrip runs a budget expected to trip across the full grid and
	// asserts: typed code, one identical message everywhere, and a non-nil
	// partial Result.
	checkTrip := func(name string, code xdm.ErrCode, set func(*ifpxq.Options)) {
		var wantMsg string
		h.walk(func(k config, opts ifpxq.Options) {
			set(&opts)
			res, err := h.q.Eval(opts)
			if err == nil {
				t.Errorf("seed %d %v: %s budget did not trip", c.Seed, k, name)
				return
			}
			if got := xdm.CodeOf(err); got != code {
				t.Errorf("seed %d %v: %s budget tripped with code %s, want %s (err: %v)",
					c.Seed, k, name, got, code, err)
				return
			}
			if wantMsg == "" {
				wantMsg = err.Error()
			} else if err.Error() != wantMsg {
				t.Errorf("seed %d %v: %s truncation message diverges:\n got: %q\nwant: %q",
					c.Seed, k, name, err.Error(), wantMsg)
			}
			if res == nil {
				t.Errorf("seed %d %v: %s truncation returned a nil partial Result", c.Seed, k, name)
			}
		})
	}

	// 2. An already-expired deadline fails identically everywhere (the
	// entry check guarantees no engine runs a single operator first).
	checkTrip("deadline", xdm.ErrDeadline, func(o *ifpxq.Options) {
		o.Deadline = time.Now().Add(-time.Second)
	})

	// 3+4. Round and row budgets: only on cases whose trip point is
	// engine-independent (see doc comment).
	ref := base[combos[0]].fixpoints
	gated := len(ref) == 1 && ref[0].Executions == 1
	for _, cb := range combos[1:] {
		fps := base[cb].fixpoints
		gated = gated && len(fps) == 1 && fps[0].Executions == 1 &&
			fps[0].Stats.Depth == ref[0].Stats.Depth &&
			fps[0].Stats.ResultSize == ref[0].Stats.ResultSize
	}
	if gated && ref[0].Stats.Depth >= 2 {
		// Every cell runs at least Depth post-seed rounds (0-based), so a
		// budget of 1 round trips at round 1 in all of them.
		checkTrip("rounds", xdm.ErrRounds, func(o *ifpxq.Options) {
			o.MaxRounds = 1
		})
	}
	if gated && ref[0].Stats.ResultSize >= 2 {
		// Every cell charges at least ResultSize rows cumulatively (the
		// Delta interpreter is the floor: seed plus each round's growth,
		// each result row exactly once), so one row short trips them all.
		checkTrip("rows", xdm.ErrRows, func(o *ifpxq.Options) {
			o.MaxRows = int64(ref[0].Stats.ResultSize) - 1
		})
	}
}
