// Package core implements the paper's inflationary fixed point (IFP)
// semantics (Definition 2.1) and its two evaluation algorithms, Naïve and
// Delta (Figure 3), independent of any particular XQuery engine. Both the
// direct interpreter (internal/xq/interp) and the relational back-end
// (internal/algebra/exec) drive their fixpoints through this package so
// that instrumentation — iterations, nodes fed back — is uniform across
// engines, matching the columns of the paper's Table 2.
package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/xdm"
)

// Payload is the recursion body e_rec regarded as a function of the
// recursion variable: it maps a node sequence bound to $x to the node
// sequence e_rec($x).
type Payload func(xdm.Sequence) (xdm.Sequence, error)

// Algorithm selects the fixpoint evaluation strategy.
type Algorithm uint8

// Fixpoint algorithms.
const (
	// Naive recomputes the payload over the whole accumulated result in
	// every round (Figure 3(a)).
	Naive Algorithm = iota
	// Delta feeds only the newly discovered nodes back into the payload
	// (Figure 3(b)); safe exactly when the payload is distributive
	// (Theorem 3.2).
	Delta
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	if a == Delta {
		return "Delta"
	}
	return "Naive"
}

// Stats instruments one fixpoint computation with the quantities reported
// in Table 2.
type Stats struct {
	// Depth is the recursion depth: the number of payload applications
	// after the seeding application (the k of Definition 2.1).
	Depth int
	// PayloadCalls counts every invocation of the payload, including the
	// initial application to the seed.
	PayloadCalls int
	// NodesFedBack totals the sequence lengths fed into the payload
	// across all invocations ("Total # of Nodes Fed Back").
	NodesFedBack int64
	// ResultSize is the cardinality of the fixpoint.
	ResultSize int
}

// Add accumulates another run's counters (used when an IFP executes once
// per binding of an enclosing for-loop, as in the bidder network query).
func (s *Stats) Add(o Stats) {
	if o.Depth > s.Depth {
		s.Depth = o.Depth
	}
	s.PayloadCalls += o.PayloadCalls
	s.NodesFedBack += o.NodesFedBack
	s.ResultSize += o.ResultSize
}

// DefaultMaxIterations bounds fixpoint rounds; bodies invoking node
// constructors can make the IFP undefined (Definition 2.1), which this
// bound turns into an IFPX0001 error instead of divergence.
const DefaultMaxIterations = 1 << 20

// Config tunes one fixpoint computation beyond the algorithm choice.
type Config struct {
	// MaxIterations bounds fixpoint rounds; <= 0 selects
	// DefaultMaxIterations.
	MaxIterations int
	// Context, when non-nil, cancels the computation between rounds; the
	// run returns the context's error.
	Context context.Context
	// Budget, when non-nil, bounds the computation: the deadline and the
	// round budget are checked between rounds, and the feed plus each
	// round's absorbed growth are charged against the row budget. Budget
	// errors unwind with the Stats collected so far.
	Budget *xdm.Budget
	// Trace, when non-nil, records one span per round (feed size, absorbed
	// growth, duration) under the TraceSite index, round 0 being the
	// seeding application. Recording is read-only instrumentation: results
	// and Stats are byte-identical with and without it (internal/difftest
	// CheckTracing).
	Trace     *obs.Trace
	TraceSite int
}

// Run computes the IFP of the payload seeded by seed using the requested
// algorithm. maxIter <= 0 selects DefaultMaxIterations.
func Run(alg Algorithm, seed xdm.Sequence, body Payload, maxIter int) (xdm.Sequence, Stats, error) {
	return RunWith(alg, seed, body, Config{MaxIterations: maxIter})
}

// RunWith is Run with a full Config.
func RunWith(alg Algorithm, seed xdm.Sequence, body Payload, cfg Config) (xdm.Sequence, Stats, error) {
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	if alg == Delta {
		return runDelta(seed, body, cfg)
	}
	return runNaive(seed, body, cfg)
}

func checkNodes(s xdm.Sequence, role string) error {
	if !s.AllNodes() {
		return xdm.NewError(xdm.ErrType, "inflationary fixed point "+role+" must be of type node()*")
	}
	return nil
}

// RunNaive is algorithm Naïve (Figure 3(a)):
//
//	res ← e_rec(e_seed);
//	do res ← e_rec(res) union res while res grows
//
// The accumulated result lives in an xdm.Accumulator: each round's answer
// is absorbed by bitmap membership tests and a sorted-run merge, so the
// union costs O(|answer|) instead of the full re-sort that round-tripping
// through xdm.Union would pay. (The *feed* is still the whole accumulated
// set — that is what makes Naïve naïve.)
func RunNaive(seed xdm.Sequence, body Payload, maxIter int) (xdm.Sequence, Stats, error) {
	return RunWith(Naive, seed, body, Config{MaxIterations: maxIter})
}

func runNaive(seed xdm.Sequence, body Payload, cfg Config) (xdm.Sequence, Stats, error) {
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	var st Stats
	var acc xdm.Accumulator
	t0 := cfg.Trace.Now()
	if err := seedAccumulator(&acc, seed, body, &st); err != nil {
		return nil, st, err
	}
	if cfg.Trace != nil {
		cfg.Trace.AddRound(cfg.TraceSite, 0, int64(len(seed)), int64(acc.Len()), cfg.Trace.Now()-t0)
	}
	if err := cfg.Budget.ChargeRows(acc.Len()); err != nil {
		return nil, st, err
	}
	feed := acc.Sequence()
	for round := 0; ; round++ {
		if round >= maxIter {
			return nil, st, xdm.Errorf(xdm.ErrIFP,
				"inflationary fixed point did not converge within %d iterations", maxIter)
		}
		if err := checkBudgetRound(cfg.Budget, round, len(feed)); err != nil {
			return nil, st, err
		}
		if err := cfg.Context.Err(); err != nil {
			return nil, st, err
		}
		t0 = cfg.Trace.Now()
		step, err := applyTo(body, feed, &st)
		if err != nil {
			return nil, st, err
		}
		fresh, err := acc.Absorb(step)
		if err != nil {
			return nil, st, err
		}
		if cfg.Trace != nil {
			cfg.Trace.AddRound(cfg.TraceSite, round+1, int64(len(feed)), int64(len(fresh)), cfg.Trace.Now()-t0)
		}
		if len(fresh) == 0 { // res is inflationary: no growth ⇒ fixpoint
			st.Depth = st.PayloadCalls - 1
			st.ResultSize = acc.Len()
			return feed, st, nil
		}
		if err := cfg.Budget.ChargeRows(len(fresh)); err != nil {
			return nil, st, err
		}
		feed = acc.Sequence()
	}
}

// RunDelta is algorithm Delta (Figure 3(b)):
//
//	res ← e_rec(e_seed); ∆ ← res;
//	do ∆ ← e_rec(∆) except res; res ← ∆ union res while res grows
//
// ∆ falls out of the accumulator for free: Absorb returns exactly the
// nodes of the round's answer not yet in res, deduplicated and in
// document order — `except res` and `∆ union res` collapse into one
// incremental pass over the answer.
func RunDelta(seed xdm.Sequence, body Payload, maxIter int) (xdm.Sequence, Stats, error) {
	return RunWith(Delta, seed, body, Config{MaxIterations: maxIter})
}

func runDelta(seed xdm.Sequence, body Payload, cfg Config) (xdm.Sequence, Stats, error) {
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	var st Stats
	var acc xdm.Accumulator
	t0 := cfg.Trace.Now()
	if err := seedAccumulator(&acc, seed, body, &st); err != nil {
		return nil, st, err
	}
	if cfg.Trace != nil {
		cfg.Trace.AddRound(cfg.TraceSite, 0, int64(len(seed)), int64(acc.Len()), cfg.Trace.Now()-t0)
	}
	if err := cfg.Budget.ChargeRows(acc.Len()); err != nil {
		return nil, st, err
	}
	delta := acc.Nodes()
	for round := 0; len(delta) > 0; round++ {
		if round >= maxIter {
			return nil, st, xdm.Errorf(xdm.ErrIFP,
				"inflationary fixed point did not converge within %d iterations", maxIter)
		}
		if err := checkBudgetRound(cfg.Budget, round, len(delta)); err != nil {
			return nil, st, err
		}
		if err := cfg.Context.Err(); err != nil {
			return nil, st, err
		}
		fed := len(delta)
		t0 = cfg.Trace.Now()
		step, err := applyTo(body, xdm.NodeSeq(delta), &st)
		if err != nil {
			return nil, st, err
		}
		delta, err = acc.Absorb(step)
		if err != nil {
			return nil, st, err
		}
		if cfg.Trace != nil {
			cfg.Trace.AddRound(cfg.TraceSite, round+1, int64(fed), int64(len(delta)), cfg.Trace.Now()-t0)
		}
		if err := cfg.Budget.ChargeRows(len(delta)); err != nil {
			return nil, st, err
		}
	}
	st.Depth = st.PayloadCalls - 1
	st.ResultSize = acc.Len()
	return acc.Sequence(), st, nil
}

// checkBudgetRound is the per-round budget gate shared by both drivers:
// deadline first (wall clock beats counters), then the round budget, then
// the feed about to be handed to the payload charged against the row
// budget. It runs before the payload application, so a tripped budget
// never pays for one more round.
func checkBudgetRound(b *xdm.Budget, round, feedLen int) error {
	if b == nil {
		return nil
	}
	if err := b.CheckDeadline(); err != nil {
		return err
	}
	if err := b.CheckRound(round); err != nil {
		return err
	}
	return b.ChargeRows(feedLen)
}

// seedAccumulator runs the seeding payload application shared by both
// algorithms and absorbs its answer as the initial res.
func seedAccumulator(acc *xdm.Accumulator, seed xdm.Sequence, body Payload, st *Stats) error {
	if err := checkNodes(seed, "seed"); err != nil {
		return err
	}
	ddoSeed, err := xdm.DDO(seed)
	if err != nil {
		return err
	}
	first, err := applyTo(body, ddoSeed, st)
	if err != nil {
		return err
	}
	_, err = acc.Absorb(first)
	return err
}

// applyTo feeds in — already in distinct document order, as the recursion
// variable is bound to a node *set* — into the payload and type-checks the
// answer, updating the instrumentation counters. Unlike the pre-accumulator
// applyPayload it does not ddo-normalize the answer: the caller's Absorb
// deduplicates and orders incrementally. The checkNodes call overlaps with
// Absorb's own per-item node check but is kept for error parity with the
// oracle drivers: the role-specific "body result" message is part of the
// byte-identical-behavior contract (and a tag check per item is noise next
// to the payload evaluation itself).
func applyTo(body Payload, in xdm.Sequence, st *Stats) (xdm.Sequence, error) {
	st.PayloadCalls++
	st.NodesFedBack += int64(len(in))
	out, err := body(in)
	if err != nil {
		return nil, err
	}
	if err := checkNodes(out, "body result"); err != nil {
		return nil, err
	}
	return out, nil
}
