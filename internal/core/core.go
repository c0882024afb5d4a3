// Package core implements the paper's inflationary fixed point (IFP)
// semantics (Definition 2.1) and its two evaluation algorithms, Naïve and
// Delta (Figure 3), independent of any particular XQuery engine. The two
// algorithms are one loop that differs only in what it feeds back — res for
// Naïve, ∆ for Delta — and that loop, Run, is the only fixpoint loop in the
// repository. Both engines run it over one node-set family, xdm.Family: the
// relational back-end (internal/algebra) holds every live iteration of
// §4.1's µ and µ∆ in it, the direct interpreter (internal/xq/interp) its one
// binding as iteration 0. The divergence cap, the budget gates,
// cancellation, the Table 2 counters and the per-round trace spans therefore
// live here once, and Sites aggregates each evaluation's fixpoint sites the
// same way for both engines.
package core

import (
	"context"
	"iter"

	"repro/internal/obs"
	"repro/internal/xdm"
)

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

// RoundCap bounds the post-seed rounds of every fixpoint execution; bodies
// invoking node constructors can make the IFP undefined (Definition 2.1),
// which this bound turns into an IFPX0001 error instead of divergence.
const RoundCap = 1 << 20

// Body is an engine's side of one fixpoint execution: e_rec.
type Body interface {
	// Step applies e_rec once with the recursion variable bound to feed and
	// returns the answer as an xdm.Family batch, which the loop absorbs
	// into res. The first call is the seeding application (feed is the
	// seed). delta is the previous application's ∆ — the seed itself on
	// the first call — which a body certified distributive may evaluate
	// instead of feed even when feed is res (the relational engine's
	// tabled µ under Naïve), because e(res) ⊆ res ∪ e(∆) then. feed and
	// delta are valid only during the call, and the batch until the next
	// one.
	Step(feed, delta *xdm.Family) (*xdm.Family, error)
}

// Config is what every fixpoint of one evaluation shares.
type Config struct {
	// Context, when non-nil, cancels the evaluation: it is polled before
	// every payload application, and the run returns its error.
	Context context.Context
	// Budget, when non-nil, bounds the evaluation. Before every post-seed
	// round the loop checks the deadline, then the round budget, then
	// charges the feed against the row budget; after every application it
	// charges the growth. Budget errors unwind with the Stats collected so
	// far.
	Budget *xdm.Budget
	// Trace, when non-nil, records one span per round (feed size, growth,
	// duration) under the site's trace index, round 0 being the seeding
	// application. Recording is read-only instrumentation: results and
	// Stats are byte-identical with and without it (internal/difftest
	// CheckTracing).
	Trace *obs.Trace
}

// Site is one syntactic fixpoint site's report: the algorithm its engine
// chose, whether the body was certified distributive, and the Table 2
// counters aggregated over every execution of the site.
type Site struct {
	Algorithm    Algorithm
	Distributive bool
	Executions   int
	Stats        Stats
	// TableHits counts the fed nodes the engine answered from earlier
	// applications instead of evaluating e_rec on them (the interpreter's
	// tabled µ); core's loop never sets it.
	TableHits int64
}

func (s *Site) site() *Site { return s }

// BodyInputs is the number of nodes e_rec was evaluated on over every
// execution: the nodes fed back, less the table hits. It is physical work,
// not a Table 2 counter.
func (s Site) BodyInputs() int64 { return s.Stats.NodesFedBack - s.TableHits }

// Record is an engine's own report of one site. It embeds Site, whose
// counters the registry aggregates, next to whatever else the engine
// reports (the interpreter's variable and Figure 5 rule).
type Record interface{ site() *Site }

// Sites is one evaluation's fixpoint site registry. K identifies a
// syntactic site in the engine's program (an AST node, a plan node); R is
// the engine's record of it.
type Sites[K comparable, R Record] struct {
	cfg   Config
	execs map[K]Exec
	keys  []K
	recs  []R
}

// NewSites starts the registry of one evaluation.
func NewSites[K comparable, R Record](cfg Config) *Sites[K, R] {
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	return &Sites[K, R]{cfg: cfg, execs: map[K]Exec{}}
}

// Enter readies one more execution of key's site. The first execution
// registers the site — describe supplies the engine's record and the trace
// label — so sites are numbered, traced, and reported in first-execution
// order.
func (s *Sites[K, R]) Enter(key K, describe func() (R, string)) Exec {
	x, ok := s.execs[key]
	if !ok {
		rec, label := describe()
		x = Exec{cfg: &s.cfg, site: rec.site(), trace: s.cfg.Trace.AddSite(label), free: new([]*xdm.Family)}
		s.execs[key] = x
		s.keys = append(s.keys, key)
		s.recs = append(s.recs, rec)
	}
	return x
}

// All yields every registered site with its record, in first-execution
// order.
func (s *Sites[K, R]) All() iter.Seq2[K, R] {
	return func(yield func(K, R) bool) {
		for i, k := range s.keys {
			if !yield(k, s.recs[i]) {
				return
			}
		}
	}
}

// Exec is one execution of a registered site, as Sites.Enter hands it out.
type Exec struct {
	cfg   *Config
	site  *Site
	trace int
	// free holds the site's released res families. Each execution pops
	// one, so a re-entrant execution of the site never shares the live
	// res of the one it runs inside; the list belongs to one evaluation's
	// Sites, so nothing is shared across evaluations or goroutines.
	free *[]*xdm.Family
}

// Site is the report of the execution's site, for the engine to count its
// TableHits on.
func (x Exec) Site() *Site { return x.site }

// Run computes one execution of the site's inflationary fixed point from
// the seed batch, with the site's algorithm: Naïve (Figure 3(a))
//
//	res ← e_rec(e_seed);
//	do res ← e_rec(res) union res while res grows
//
// or Delta (Figure 3(b))
//
//	res ← e_rec(e_seed); ∆ ← res;
//	do ∆ ← e_rec(∆) except res; res ← ∆ union res while res grows
//
// `except res` and `union res` are one incremental xdm.Family.Absorb, so
// the two algorithms differ only in the feed. The execution's counters are
// added to the site's, also when it fails.
//
// res is borrowed from the site: the engine reads it, then hands it back
// with x.Release, and the site's next execution reuses its buffers (the
// member log, the spare read buffer, the screen's bitmaps and ∆) instead of
// regrowing them. A res that is never released is simply collected.
func Run(x Exec, seed *xdm.Family, body Body) (*xdm.Family, error) {
	return run(x, seed, body, RoundCap)
}

// Release hands res, the result of one of the site's Runs, back to the
// site for its next execution. res and every slice read from it are
// invalid afterwards; Release it at most once.
func (x Exec) Release(res *xdm.Family) {
	if res != nil {
		*x.free = append(*x.free, res)
	}
}

// borrow pops a released family, emptied, or makes one.
func (x Exec) borrow() *xdm.Family {
	free := *x.free
	if len(free) == 0 {
		return new(xdm.Family)
	}
	res := free[len(free)-1]
	*x.free = free[:len(free)-1]
	res.Reset()
	return res
}

func run(x Exec, seed *xdm.Family, body Body, roundCap int) (_ *xdm.Family, err error) {
	var st Stats
	// res first holds the seed in distinct document order, round 0's feed;
	// apply empties it before absorbing e_rec(e_seed).
	res := x.borrow()
	defer func() {
		x.site.Executions++
		x.site.Stats.Add(st)
		if err != nil {
			x.Release(res)
		}
	}()
	budget := x.cfg.Budget
	res.Absorb(seed)
	delta, err := apply(x, body, res, 0, res, res, &st)
	if err != nil {
		return nil, err
	}
	if err := budget.ChargeRows(delta.Len()); err != nil {
		return nil, err
	}
	for round := 0; x.site.Algorithm == Naive || delta.Len() > 0; round++ {
		if round >= roundCap {
			return nil, xdm.Errorf(xdm.ErrIFP,
				"inflationary fixed point did not converge within %d iterations", roundCap)
		}
		feed := delta
		if x.site.Algorithm == Naive {
			feed = res
		}
		// Deadline first (wall clock beats counters), then the round budget,
		// then the feed: a tripped budget never pays for one more round.
		if err := budget.CheckDeadline(); err != nil {
			return nil, err
		}
		if err := budget.CheckRound(round); err != nil {
			return nil, err
		}
		if err := budget.ChargeRows(feed.Len()); err != nil {
			return nil, err
		}
		if delta, err = apply(x, body, res, round+1, feed, delta, &st); err != nil {
			return nil, err
		}
		if delta.Len() == 0 { // res is inflationary: no growth ⇒ fixpoint
			break
		}
		if err := budget.ChargeRows(delta.Len()); err != nil {
			return nil, err
		}
	}
	st.Depth = st.PayloadCalls - 1
	st.ResultSize = res.Len()
	return res, nil
}

// apply is one payload application: the cancellation poll, the Table 2
// counters, and the round's trace span around the body's Step and the
// absorb of its answer into res. It returns ∆.
func apply(x Exec, body Body, res *xdm.Family, round int, feed, delta *xdm.Family, st *Stats) (*xdm.Family, error) {
	if err := x.cfg.Context.Err(); err != nil {
		return nil, err
	}
	// Measured before Step: the feed may alias res, which the absorb grows.
	fed := int64(feed.Len())
	st.PayloadCalls++
	st.NodesFedBack += fed
	tr := x.cfg.Trace
	t0, hits := tr.Now(), x.site.TableHits
	answer, err := body.Step(feed, delta)
	if err != nil {
		return nil, err
	}
	if round == 0 { // res held the seed; Definition 2.1 leaves it out
		res.Reset()
	}
	d := res.Absorb(answer)
	tr.AddRound(x.trace, round, fed, int64(d.Len()), fed-(x.site.TableHits-hits), tr.Now()-t0)
	return d, nil
}
