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
//
// So does tabling. A certified body satisfies e(X) = ∪ₓ e({x}) (§3): Run
// feeds a Tabled site ∆ in every round, and may answer ∆ from the site's
// table, asking the body only for the misses (Answerer, Tabling).
package core

import (
	"context"
	"fmt"
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

// Mode is the fixpoint setting every query carries: leave the algorithm to
// the processor, or force one.
type Mode uint8

// Fixpoint modes.
const (
	// ModeAuto runs Delta exactly where the engine certifies the body
	// distributive — the processor-in-control behaviour of §3.
	ModeAuto Mode = iota
	// ModeNaive forces Naïve everywhere.
	ModeNaive
	// ModeDelta forces Delta everywhere (unsafe for non-distributive
	// bodies; Example 2.4 reproduces the divergence).
	ModeDelta
)

// Pick is the one place a fixpoint site's algorithm is decided: the
// algorithm a site runs under m, given whether its engine certified the
// body distributive.
func (m Mode) Pick(certified bool) Algorithm {
	if m == ModeDelta || m == ModeAuto && certified {
		return Delta
	}
	return Naive
}

// String is the mode's text form, the one ParseMode reads.
func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeDelta:
		return "delta"
	}
	return "auto"
}

// ParseMode reads a mode's text form; the empty text is ModeAuto.
func ParseMode(s string) (Mode, error) {
	for m := ModeAuto; m <= ModeDelta; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	if s == "" {
		return ModeAuto, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
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
	// seed); at a tabled site every later feed is the previous ∆. feed is
	// valid only during the call, and the batch until the next one.
	Step(feed *xdm.Family) (*xdm.Family, error)
}

// Answerer is a Body that also answers nodes one at a time: iteration i of
// Answer's family is e({nodes[i]}), and a trailing zero NodeRef asks for
// e(∅). The family is valid until the next call.
type Answerer interface {
	Body
	Answer(nodes []xdm.NodeRef) (*xdm.Family, error)
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
	// Tabled marks a site certified for tabling: every round is fed ∆,
	// and an execution may run with the site's table (Exec.Table).
	Tabled     bool
	Executions int
	Stats      Stats
	// TableHits counts the fed nodes e_rec was not evaluated on: at a
	// tabled site, res − ∆ of every Naïve round and the nodes of ∆ the
	// site's table answered.
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
		x = Exec{cfg: &s.cfg, site: rec.site(), trace: s.cfg.Trace.AddSite(label), rec: len(s.recs), kept: new(kept)}
		s.execs[key] = x
		s.keys = append(s.keys, key)
		s.recs = append(s.recs, rec)
	}
	return x
}

// Record is the engine's record of x's site.
func (s *Sites[K, R]) Record(x Exec) R { return s.recs[x.rec] }

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
	// Table is what the execution does with the site's table, set by the
	// engine before Run at a Tabled site whose body is an Answerer.
	Table Tabling
	// EmptySeeded lists the iterations whose seed was empty: with a table,
	// each takes e(∅) in round 0.
	EmptySeeded []int32

	cfg   *Config
	site  *Site
	trace int
	rec   int // the site's index in Sites.recs
	kept  *kept
}

// kept is what a site keeps across executions: released families, which
// each execution pops its own of, so a re-entrant one never shares a live
// res or batch, and the table (with its batch) the last fresh start made.
// It belongs to one evaluation's Sites, so nothing is shared across
// goroutines.
type kept struct {
	free  []*xdm.Family
	table *table
}

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

// Borrow lends the execution an empty family, the engine's batch say,
// from the site's free list.
func (x Exec) Borrow() *xdm.Family {
	k := x.kept
	if len(k.free) == 0 {
		return new(xdm.Family)
	}
	f := k.free[len(k.free)-1]
	k.free = k.free[:len(k.free)-1]
	f.Reset()
	return f
}

// Release hands back f, a family Borrow lent or a Run's result, for the
// site's next executions. f and every slice read from it are invalid
// afterwards; Release it at most once.
func (x Exec) Release(f *xdm.Family) {
	if f != nil {
		x.kept.free = append(x.kept.free, f)
	}
}

// execution is one Run under way, with its table when it runs tabled.
type execution struct {
	Exec
	body Body
	res  *xdm.Family
	st   Stats
	tab  *table
}

func run(x Exec, seed *xdm.Family, body Body, roundCap int) (_ *xdm.Family, err error) {
	// res first holds the seed in distinct document order, round 0's feed;
	// apply empties it before absorbing e_rec(e_seed).
	e := execution{Exec: x, body: body, res: x.Borrow()}
	if x.Table != Untabled {
		e.tab = x.open()
	}
	defer func() {
		x.site.Executions++
		x.site.Stats.Add(e.st)
		if e.tab != nil {
			e.tab.busy = false
		}
		if err != nil {
			x.Release(e.res)
		}
	}()
	budget := x.cfg.Budget
	res := e.res
	res.Absorb(seed)
	delta, err := e.apply(0, res, res)
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
		if delta, err = e.apply(round+1, feed, delta); err != nil {
			return nil, err
		}
		if delta.Len() == 0 { // res is inflationary: no growth ⇒ fixpoint
			break
		}
		if err := budget.ChargeRows(delta.Len()); err != nil {
			return nil, err
		}
	}
	e.st.Depth = e.st.PayloadCalls - 1
	e.st.ResultSize = res.Len()
	return res, nil
}

// apply is one payload application: the cancellation poll, the Table 2
// counters, and the round's trace span around the body's answer and its
// absorb into res. A tabled site's body sees only delta, the previous ∆:
// e(res) ⊆ res ∪ e(∆), so the rest of a Naïve feed is counted as table
// hits. It returns the new ∆.
func (e *execution) apply(round int, feed, delta *xdm.Family) (*xdm.Family, error) {
	if err := e.cfg.Context.Err(); err != nil {
		return nil, err
	}
	// Measured before the body runs: the feed may alias res, which the
	// absorb grows.
	fed := int64(feed.Len())
	e.st.PayloadCalls++
	e.st.NodesFedBack += fed
	tr := e.cfg.Trace
	t0, hits := tr.Now(), e.site.TableHits
	if e.site.Tabled {
		e.site.TableHits += fed - int64(delta.Len())
		feed = delta
	}
	answer, err := e.step(feed)
	if err != nil {
		return nil, err
	}
	if round == 0 { // res held the seed; Definition 2.1 leaves it out
		e.res.Reset()
	}
	d := e.res.Absorb(answer)
	tr.AddRound(e.trace, round, fed, int64(d.Len()), fed-(e.site.TableHits-hits), tr.Now()-t0)
	return d, nil
}
