package xdm

import (
	"sync/atomic"
	"time"
)

// Budget bounds one evaluation's resource consumption. The paper's
// inflationary fixed point deliberately admits non-terminating recursion
// (a body that constructs fresh nodes grows forever), and even the
// non-recursive fragment can be exponentially expensive — so a serving
// layer needs per-request allowances it can enforce *during* evaluation,
// not just observe afterwards.
//
// A Budget is built once per evaluation and shared by every engine layer
// that evaluation touches: the fixpoint loop checks the deadline and the
// round budget between rounds, and the relational executor charges every
// freshly materialized table against the row budget. All methods are
// nil-receiver safe (a nil *Budget enforces nothing), so call sites need
// no guards, and ChargeRows is safe for concurrent use.
//
// Error messages embed only the configured limits — never elapsed time or
// running totals — so a truncation error is byte-identical across engines,
// fixpoint modes and optimizer levels whenever the same
// budget class trips (internal/difftest asserts exactly this).
type Budget struct {
	deadline  time.Time
	maxRounds int
	maxRows   int64
	rows      atomic.Int64
}

// NewBudget builds a budget. A zero deadline means no time bound; rounds
// and rows bounds <= 0 mean unlimited. Returns nil when nothing is
// bounded, so "no budget" costs nothing at every check site.
func NewBudget(deadline time.Time, maxRounds int, maxRows int64) *Budget {
	if deadline.IsZero() && maxRounds <= 0 && maxRows <= 0 {
		return nil
	}
	return &Budget{deadline: deadline, maxRounds: maxRounds, maxRows: maxRows}
}

// CheckDeadline reports ErrDeadline once the wall clock passes the
// budget's deadline.
func (b *Budget) CheckDeadline() error {
	if b == nil || b.deadline.IsZero() {
		return nil
	}
	if time.Now().After(b.deadline) {
		return NewError(ErrDeadline, "evaluation deadline exceeded")
	}
	return nil
}

// CheckRound reports ErrRounds when a fixpoint site is about to run its
// post-seed round number `round` (0-based) beyond the budget. Both
// algorithms (Naïve and Delta) apply the body the same number of times
// after seeding, so the trip point is identical across engines and modes.
func (b *Budget) CheckRound(round int) error {
	if b == nil || b.maxRounds <= 0 {
		return nil
	}
	if round >= b.maxRounds {
		return Errorf(ErrRounds, "fixpoint round budget of %d rounds exhausted", b.maxRounds)
	}
	return nil
}

// ChargeRows accounts n rows materialized and reports ErrRows once the
// cumulative total exceeds the budget. Charges happen at deterministic
// sequential points of each engine (table materialization, fixpoint feed
// and growth), so the trip point is the same on every run.
func (b *Budget) ChargeRows(n int) error {
	if b == nil || b.maxRows <= 0 {
		return nil
	}
	if b.rows.Add(int64(n)) > b.maxRows {
		return Errorf(ErrRows, "row budget of %d rows exhausted", b.maxRows)
	}
	return nil
}

// RowsCharged returns the rows accounted so far (partial-progress stats
// for truncated evaluations).
func (b *Budget) RowsCharged() int64 {
	if b == nil {
		return 0
	}
	return b.rows.Load()
}
