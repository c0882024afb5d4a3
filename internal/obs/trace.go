// Package obs is the zero-dependency observability layer shared by the
// engines, the CLI tools, and the xqd server: a per-query span recorder
// (phases, per-fixpoint-round spans, per-operator counters), a hand-rolled
// Prometheus text-format registry, and a scrape parser. Everything here is
// built so the *disabled* path costs a nil check and nothing else — every
// Trace and PlanProfile method is safe on a nil receiver and allocates
// nothing there — which is what lets both engines keep instrumentation
// hooks inline on their hot paths without perturbing the bench gates.
package obs

import (
	"sync"
	"time"
)

// Phase is one coarse stage of a query's life: parse, compile, optimize,
// store-resolve, exec. Offsets are nanoseconds since the trace started, on
// the monotonic clock (time.Time retains the monotonic reading).
type Phase struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Round is one fixpoint round at one site: how many rows were fed into the
// payload, how many genuinely new rows the round produced (the delta), on
// how many of the fed rows the body was evaluated (fewer than fed when
// core's table answered the rest of a tabled site's feed), and how long
// the round took. Round 0 is the seeding application.
type Round struct {
	Site      int   `json:"site"`
	Round     int   `json:"round"`
	Fed       int64 `json:"fed"`
	Delta     int64 `json:"delta"`
	Evaluated int64 `json:"evaluated"`
	DurNs     int64 `json:"dur_ns"`
}

// DefaultRoundCap bounds the per-trace round storage. A trace is a
// per-query object; a site that spins past this many recorded rounds is
// runaway recursion, and the recorder drops further rounds (counting them
// in Dropped) instead of growing without bound.
const DefaultRoundCap = 4096

// Trace records one query's spans. All methods are safe on a nil receiver
// (they become no-ops), safe for concurrent use, and the round storage is
// preallocated so steady-state recording does not allocate.
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	phases  []Phase
	sites   []string
	rounds  []Round
	cap     int
	dropped int64
}

// NewTrace builds an enabled trace with the default round capacity.
func NewTrace(id string) *Trace { return NewTraceCap(id, DefaultRoundCap) }

// NewTraceCap builds a trace bounded to at most roundCap recorded rounds.
func NewTraceCap(id string, roundCap int) *Trace {
	if roundCap <= 0 {
		roundCap = DefaultRoundCap
	}
	pre := roundCap
	if pre > 64 {
		pre = 64
	}
	return &Trace{
		id:     id,
		start:  time.Now(),
		rounds: make([]Round, 0, pre),
		cap:    roundCap,
	}
}

// ID returns the trace's query ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Now returns nanoseconds since the trace started (monotonic), 0 on nil.
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// noopStop is the shared closure StartPhase hands out on a nil receiver,
// keeping the disabled path allocation-free (guarded by TestNilTraceAllocs).
var noopStop = func() {}

// StartPhase opens a named phase and returns the closure that ends it.
func (t *Trace) StartPhase(name string) func() {
	if t == nil {
		return noopStop
	}
	start := time.Since(t.start)
	return func() {
		end := time.Since(t.start)
		t.AddPhase(name, start.Nanoseconds(), (end - start).Nanoseconds())
	}
}

// AddPhase records a completed phase directly (engines that already hold
// start/duration use this instead of StartPhase's closure).
func (t *Trace) AddPhase(name string, startNs, durNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, Phase{Name: name, StartNs: startNs, DurNs: durNs})
	t.mu.Unlock()
}

// AddSite registers a fixpoint site label and returns its index. Engines
// call it once per site on first execution; rounds reference the index.
func (t *Trace) AddSite(label string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.sites = append(t.sites, label)
	i := len(t.sites) - 1
	t.mu.Unlock()
	return i
}

// AddRound records one fixpoint round. Past the trace's round capacity the
// round is dropped and counted — the truncation marker readers check via
// Dropped — so a runaway site cannot grow the trace without bound.
func (t *Trace) AddRound(site, round int, fed, delta, evaluated, durNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.rounds) >= t.cap {
		t.dropped++
	} else {
		t.rounds = append(t.rounds, Round{Site: site, Round: round, Fed: fed, Delta: delta, Evaluated: evaluated, DurNs: durNs})
	}
	t.mu.Unlock()
}

// Phases snapshots the recorded phases in recording order.
func (t *Trace) Phases() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Phase, len(t.phases))
	copy(out, t.phases)
	return out
}

// PhaseNs sums phase durations by name, e.g. {"compile": …, "exec": …}.
// Repeated phases (one store-resolve span per document) merge.
func (t *Trace) PhaseNs() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.phases) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.phases))
	for _, p := range t.phases {
		out[p.Name] += p.DurNs
	}
	return out
}

// Sites snapshots the registered site labels, indexed by site number.
func (t *Trace) Sites() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.sites))
	copy(out, t.sites)
	return out
}

// Rounds snapshots the recorded rounds in recording order.
func (t *Trace) Rounds() []Round {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Round, len(t.rounds))
	copy(out, t.rounds)
	return out
}

// Dropped reports how many rounds overflowed the trace's capacity.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
