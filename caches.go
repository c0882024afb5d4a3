package ifpxq

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// CacheStats is a point-in-time snapshot of one plan or result cache's
// counters.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`     // entries dropped by LRU pressure
	Invalidations int64 `json:"invalidations"` // entries flushed by a generation change (ResultCache only)
	Entries       int   `json:"entries"`       // resident entries
	MaxEntries    int   `json:"max_entries"`
}

// bounded is one locked LRU of at most max entries (max <= 0: unbounded)
// with its counters: each half of the plan cache is one, and the result
// cache is one plus a store generation.
type bounded[K comparable, V any] struct {
	mu                                     sync.Mutex
	max                                    int
	list                                   lru.List[K, V]
	hits, misses, evictions, invalidations int64
}

// getLocked returns key's value, promoting it and counting a hit or a miss.
func (b *bounded[K, V]) getLocked(key K) (V, bool) {
	v, ok := b.list.Touch(key)
	if ok {
		b.hits++
	} else {
		b.misses++
	}
	return v, ok
}

// putLocked inserts or replaces key as the most recent entry and evicts
// the least recent ones past the bound.
func (b *bounded[K, V]) putLocked(key K, v V) {
	b.list.Put(key, v)
	for k := range b.list.Backward() {
		if b.max <= 0 || b.list.Len() <= b.max {
			break
		}
		b.list.Remove(k)
		b.evictions++
	}
}

func (b *bounded[K, V]) get(key K) (V, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.getLocked(key)
}

func (b *bounded[K, V]) put(key K, v V) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.putLocked(key, v)
}

func (b *bounded[K, V]) stats() CacheStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return CacheStats{
		Hits: b.hits, Misses: b.misses, Evictions: b.evictions,
		Invalidations: b.invalidations,
		Entries:       b.list.Len(), MaxEntries: b.max,
	}
}

// PlanCache caches the work that depends only on the query text and the
// compilation options: parsed queries and compiled, optimized relational
// plans. A compiled plan holds no per-evaluation state (everything
// mutable lives in the executor's per-run context), so one cached plan
// serves any number of concurrent evaluations. Safe for concurrent use;
// a nil *PlanCache disables caching with no behaviour change.
type PlanCache struct {
	parsed bounded[string, *Query]          // source → parsed query
	plans  bounded[queryKey, *algebra.Plan] // query key → plan
}

// NewPlanCache builds a plan cache bounding both the parsed-query and
// compiled-plan LRUs at max entries each (max <= 0: unbounded).
func NewPlanCache(max int) *PlanCache {
	return &PlanCache{parsed: bounded[string, *Query]{max: max}, plans: bounded[queryKey, *algebra.Plan]{max: max}}
}

// Parse parses src through the cache: a repeat query returns the
// already-parsed Query. Parse errors are not cached. A nil receiver
// parses directly.
func (pc *PlanCache) Parse(src string) (*Query, error) {
	if pc == nil {
		return Parse(src)
	}
	if q, ok := pc.parsed.get(src); ok {
		return q, nil
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	pc.parsed.put(src, q)
	return q, nil
}

// Stats snapshots the compiled-plan cache counters.
func (pc *PlanCache) Stats() CacheStats {
	if pc == nil {
		return CacheStats{}
	}
	return pc.plans.stats()
}

// ParseStats snapshots the parsed-query cache counters.
func (pc *PlanCache) ParseStats() CacheStats {
	if pc == nil {
		return CacheStats{}
	}
	return pc.parsed.stats()
}

// queryKey is a query's identity in both caches: its source text, the
// Regular XPath marker (a translation and an XQuery of identical text must
// not meet), and the options that shape a relational plan. A compiled plan
// is a function of this key, so it is the whole plan-cache key; the result
// cache extends it (resultKey). Keys compare by value, so no two queries
// can collide.
type queryKey struct {
	src  string
	rxp  bool
	mode Mode
	opt  OptLevel
}

// key is q's query key under the given options.
func (q *Query) key(o *Options) queryKey {
	return queryKey{src: q.src, rxp: q.rxp, mode: o.Mode, opt: o.Opt}
}

// resultKey identifies one complete outcome: the query key, the engine,
// and every budget knob that changes the observable outcome
// deterministically. Deadline stays out: it is wall-clock, and since only
// complete results cache, a hit can only ever be faster than the deadline
// demanded.
type resultKey struct {
	queryKey
	engine    Engine
	maxRounds int
	maxRows   int64
}

// ResultCache caches complete evaluation results, keyed on the query
// (resultKey: source, language, mode, optimizer level, engine and budget
// options) and valid only at one store generation: the moment any
// document leaves the store cache (replaced on disk, evicted, purged)
// the generation moves and every cached result flushes wholesale. Each
// entry also records the document URIs its evaluation touched; a hit
// revalidates those documents against disk first, so a file rewrite
// invalidates the result even before any query re-acquires the document.
// Only complete results cache — errors and budget truncations never do.
// Every hit on an entry shares its Items, which are read-only, and its
// one rendering: the entry is serialized once, by the first String call
// on the evaluated result or on any hit.
// Safe for concurrent use; a nil *ResultCache disables caching.
type ResultCache struct {
	bounded[resultKey, resultEntry]
	// gen is the store generation every resident entry was computed at
	// (guarded by mu).
	gen int64
	st  *Store
}

// resultEntry is one cached outcome plus the doc URIs it depends on.
type resultEntry struct {
	res  *Result
	uris []string
}

// NewResultCache builds a result cache bounded at max entries (max <= 0:
// unbounded), tied to the store whose generation governs validity. A nil
// store pins the generation at zero — correct when documents are
// immutable for the process lifetime (in-memory resolvers).
func NewResultCache(max int, st *Store) *ResultCache {
	return &ResultCache{bounded: bounded[resultKey, resultEntry]{max: max}, st: st}
}

// Stats snapshots the result cache counters.
func (rc *ResultCache) Stats() CacheStats {
	if rc == nil {
		return CacheStats{}
	}
	return rc.stats()
}

// generation reads the governing store generation (0 with no store).
func (rc *ResultCache) generation() int64 {
	if rc == nil || rc.st == nil {
		return 0
	}
	return rc.st.Cache().Generation()
}

// syncLocked flushes every entry if gen differs from the resident
// generation, counting the flushed entries as invalidations.
func (rc *ResultCache) syncLocked(gen int64) {
	if gen != rc.gen {
		rc.invalidations += int64(rc.list.Clear())
		rc.gen = gen
	}
}

// get probes the cache: revalidate every document the entry depends on
// (which bumps the store generation if any file changed on disk), then
// read at the now-current generation — a stale entry misses because the
// generation change flushed it.
func (rc *ResultCache) get(key resultKey) (*Result, bool) {
	if rc == nil {
		return nil, false
	}
	if rc.st != nil {
		rc.mu.Lock()
		e, ok := rc.list.Lookup(key)
		rc.mu.Unlock()
		if ok {
			for _, uri := range e.uris {
				rc.st.Cache().Validate(uri)
			}
		}
	}
	return rc.getAt(key, rc.generation())
}

// getAt flushes the cache if the store generation moved to gen, then
// returns the entry for key, counting a hit or a miss. Hits return a
// private shallow copy.
func (rc *ResultCache) getAt(key resultKey, gen int64) (*Result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.syncLocked(gen)
	e, ok := rc.getLocked(key)
	if !ok {
		return nil, false
	}
	return cloneResult(e.res), true
}

// put inserts a complete result computed at generation gen, read before
// the evaluation started. An insert older than the resident generation is
// dropped — the store moved while the query ran, so the result may embed
// stale documents — and a newer one flushes the older residents first.
// It gives res a fresh rendering first, which the entry shares, so the
// evaluating caller's own String call primes every later hit.
func (rc *ResultCache) put(key resultKey, gen int64, res *Result, uris []string) {
	if rc == nil {
		return
	}
	res.text = &rendering{}
	e := resultEntry{res: cloneResult(res), uris: uris}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if gen < rc.gen {
		return
	}
	rc.syncLocked(gen)
	rc.putLocked(key, e)
}

// cloneResult is a shallow copy: the item sequence and the rendering are
// shared (results are read-only by contract) but the stats slice is
// private, so a caller appending to Fixpoints cannot corrupt the cached
// entry.
func cloneResult(r *Result) *Result {
	return &Result{Items: r.Items, Fixpoints: append([]FixpointStats(nil), r.Fixpoints...), text: r.text}
}

// uriCollector wraps a DocResolver to record which URIs an evaluation
// successfully resolved — the cached result's dependency set. Safe for
// concurrent use.
type uriCollector struct {
	next DocResolver
	mu   sync.Mutex
	seen map[string]struct{}
	list []string
}

func newURICollector(next DocResolver) *uriCollector {
	return &uriCollector{next: next, seen: make(map[string]struct{})}
}

// resolver returns the recording resolver (nil when there is nothing to
// wrap, preserving "no resolver configured" errors).
func (c *uriCollector) resolver() DocResolver {
	if c.next == nil {
		return nil
	}
	return func(uri string) (*xdm.Document, error) {
		d, err := c.next(uri)
		if err == nil {
			c.mu.Lock()
			if _, ok := c.seen[uri]; !ok {
				c.seen[uri] = struct{}{}
				c.list = append(c.list, uri)
			}
			c.mu.Unlock()
		}
		return d, err
	}
}

func (c *uriCollector) uris() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.list
}

// relationalPlan obtains the compiled, optimized plan for one evaluation
// — from the plan cache when the options carry one (the compile and
// optimize phases then vanish from traces, which is how EXPLAIN ANALYZE
// shows the cache win), compiling afresh otherwise.
func (q *Query) relationalPlan(opts *Options) (*algebra.Plan, error) {
	pc := opts.PlanCache
	if pc == nil {
		return compilePlan(q.module, opts.Mode, opts.Opt, opts.Trace)
	}
	key := q.key(opts)
	if plan, ok := pc.plans.get(key); ok {
		return plan, nil
	}
	plan, err := compilePlan(q.module, opts.Mode, opts.Opt, opts.Trace)
	if err == nil {
		pc.plans.put(key, plan)
	}
	return plan, err
}

// compilePlan compiles, fixes each µ site's algorithm per mode (auto takes
// µ∆ where the extended algebraic check certifies the body) and optimizes
// at the given level: the one place a relational plan is built, for
// evaluation and for Explain alike.
func compilePlan(m *ast.Module, mode Mode, level OptLevel, tr *obs.Trace) (*algebra.Plan, error) {
	var optimize func(*algebra.Plan)
	if level != Opt0 {
		optimize = opt.Optimize
	}
	return algebra.CompilePlan(m, mode, false, optimize, tr)
}
