package ifpxq

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/xdm"
)

// CacheStats re-exports the per-cache counter snapshot (hits, misses,
// evictions, invalidations, entries).
type CacheStats = plancache.Stats

// PlanCache caches the work that depends only on the query text and the
// compilation options: parsed queries and compiled, optimized relational
// plans. A compiled plan holds no per-evaluation state (everything
// mutable lives in the executor's per-run context), so one cached plan
// serves any number of concurrent evaluations. Safe for concurrent use;
// a nil *PlanCache disables caching with no behaviour change.
type PlanCache struct {
	parsed *plancache.Cache // source → *Query
	plans  *plancache.Cache // (source, mode, strict, opt) → cachedPlan
}

// cachedPlan pairs a compiled plan with its stable structural hash — the
// result cache's key material, computed once at compile time.
type cachedPlan struct {
	plan *algebra.Plan
	hash uint64
}

// NewPlanCache builds a plan cache bounding both the parsed-query and
// compiled-plan LRUs at max entries each (max <= 0: unbounded).
func NewPlanCache(max int) *PlanCache {
	return &PlanCache{parsed: plancache.New(max), plans: plancache.New(max)}
}

// Parse parses src through the cache: a repeat query returns the
// already-parsed Query. Parse errors are not cached. A nil receiver
// parses directly.
func (pc *PlanCache) Parse(src string) (*Query, error) {
	if pc == nil {
		return Parse(src)
	}
	if v, ok := pc.parsed.Get(src); ok {
		return v.(*Query), nil
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	pc.parsed.Put(src, q)
	return q, nil
}

// Stats snapshots the compiled-plan cache counters.
func (pc *PlanCache) Stats() CacheStats {
	if pc == nil {
		return CacheStats{}
	}
	return pc.plans.Stats()
}

// ParseStats snapshots the parsed-query cache counters.
func (pc *PlanCache) ParseStats() CacheStats {
	if pc == nil {
		return CacheStats{}
	}
	return pc.parsed.Stats()
}

// Purge drops every cached query and plan.
func (pc *PlanCache) Purge() {
	if pc == nil {
		return
	}
	pc.parsed.Purge()
	pc.plans.Purge()
}

// planKey identifies one compiled plan: the source text plus everything
// that shapes compilation. The rxp marker keeps a Regular XPath
// translation and an XQuery of identical source text apart.
func (q *Query) planKey(mode algebra.FixpointMode, strict, optimize bool) string {
	return fmt.Sprintf("m%d|s%t|o%t|x%t|%s", mode, strict, optimize, q.rxp, q.src)
}

// srcHash is the result-cache plan-hash stand-in for the interpreter
// engine, which has no plan to hash: a stable hash of the source text.
func (q *Query) srcHash() uint64 {
	h := fnv.New64a()
	if q.rxp {
		io.WriteString(h, "rxp|")
	}
	io.WriteString(h, q.src)
	return h.Sum64()
}

// ResultCache caches complete evaluation results, keyed by plan hash and
// budget options and valid only at one store generation: the moment any
// document leaves the store cache (replaced on disk, evicted, purged)
// the generation moves and every cached result flushes wholesale. Each
// entry also records the document URIs its evaluation touched; a hit
// revalidates those documents against disk first, so a file rewrite
// invalidates the result even before any query re-acquires the document.
// Only complete results cache — errors and budget truncations never do.
// Safe for concurrent use; a nil *ResultCache disables caching.
type ResultCache struct {
	rc *plancache.ResultCache
	st *Store
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
	return &ResultCache{rc: plancache.NewResults(max), st: st}
}

// Stats snapshots the result cache counters.
func (rc *ResultCache) Stats() CacheStats {
	if rc == nil {
		return CacheStats{}
	}
	return rc.rc.Stats()
}

// Purge drops every cached result.
func (rc *ResultCache) Purge() {
	if rc == nil {
		return
	}
	rc.rc.Purge()
}

// generation reads the governing store generation (0 with no store).
func (rc *ResultCache) generation() int64 {
	if rc == nil || rc.st == nil {
		return 0
	}
	return rc.st.Cache().Generation()
}

// get probes the cache: peek the entry, revalidate every document it
// depends on (which bumps the store generation if any file changed on
// disk), then re-read at the now-current generation — a stale entry
// misses because the sync flushed it. Hits return a private shallow copy.
func (rc *ResultCache) get(key string) (*Result, bool) {
	if rc == nil {
		return nil, false
	}
	if v, ok := rc.rc.Peek(key); ok && rc.st != nil {
		for _, uri := range v.(resultEntry).uris {
			rc.st.Cache().Validate(uri)
		}
	}
	v, ok := rc.rc.Get(key, rc.generation())
	if !ok {
		return nil, false
	}
	return cloneResult(v.(resultEntry).res), true
}

// put inserts a complete result computed at generation gen (read before
// the evaluation started — if the store moved mid-evaluation the insert
// is dropped or flushed rather than trusted).
func (rc *ResultCache) put(key string, gen int64, res *Result, uris []string) {
	if rc == nil {
		return
	}
	rc.rc.Put(key, gen, resultEntry{res: cloneResult(res), uris: uris})
}

// cloneResult is a shallow copy: the item sequence is shared (results
// are read-only by contract) but the stats slice is private, so a caller
// appending to Fixpoints cannot corrupt the cached entry.
func cloneResult(r *Result) *Result {
	return &Result{Items: r.Items, Fixpoints: append([]FixpointStats(nil), r.Fixpoints...)}
}

// resultKey assembles the full result-cache key: engine, everything that
// shapes the plan (for the relational engine the hash already encodes
// mode/strict/opt — repeating them is harmless), and every budget knob
// that changes the observable outcome deterministically. Deadline stays
// out: it is wall-clock, and since only complete results cache, a hit
// can only ever be faster than the deadline demanded. Parallelism stays
// out because results are byte-identical at every worker count (a
// difftest invariant).
func resultKey(o *Options, hash uint64) string {
	return fmt.Sprintf("e%d|m%d|s%t|o%t|h%016x|i%d|r%d|w%d",
		o.Engine, o.Mode, o.StrictAlgebraicCheck, o.Opt != Opt0, hash,
		o.MaxIterations, o.MaxRounds, o.MaxRows)
}

// uriCollector wraps a DocResolver to record which URIs an evaluation
// successfully resolved — the cached result's dependency set. Safe for
// concurrent use (parallel evaluators resolve from several goroutines).
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
// shows the cache win), compiling afresh otherwise. The returned hash is
// the plan's stable structural hash when something downstream needs it
// (a result cache, or any plan-cache insert), else 0.
func (q *Query) relationalPlan(opts *Options) (*algebra.Plan, uint64, error) {
	mode := algebra.ModeAuto
	switch opts.Mode {
	case ModeNaive:
		mode = algebra.ModeNaive
	case ModeDelta:
		mode = algebra.ModeDelta
	}
	var optimize func(*algebra.Plan)
	if opts.Opt != Opt0 {
		optimize = opt.Optimize
	}
	if opts.PlanCache == nil {
		plan, err := algebra.CompilePlan(q.module, mode, opts.StrictAlgebraicCheck, optimize, opts.Trace)
		if err != nil {
			return nil, 0, err
		}
		var h uint64
		if opts.ResultCache != nil {
			h = opt.PlanHash(plan.Root)
		}
		return plan, h, nil
	}
	key := q.planKey(mode, opts.StrictAlgebraicCheck, optimize != nil)
	if v, ok := opts.PlanCache.plans.Get(key); ok {
		cp := v.(cachedPlan)
		return cp.plan, cp.hash, nil
	}
	plan, err := algebra.CompilePlan(q.module, mode, opts.StrictAlgebraicCheck, optimize, opts.Trace)
	if err != nil {
		return nil, 0, err
	}
	h := opt.PlanHash(plan.Root)
	opts.PlanCache.plans.Put(key, cachedPlan{plan: plan, hash: h})
	return plan, h, nil
}

// relationalEngine wraps a compiled plan for one evaluation. Only the
// per-run knobs matter here; mode, strictness, and optimizer level are
// already baked into the plan.
func relationalEngine(plan *algebra.Plan, opts *Options, budget *xdm.Budget, docs DocResolver, prof *obs.PlanProfile) *algebra.Engine {
	return algebra.NewEngineFromPlan(plan, algebra.Options{
		MaxIterations: opts.MaxIterations, Docs: docs,
		Parallelism: opts.Parallelism, NoIndex: opts.NoIndex,
		Context: opts.Context,
		Budget:  budget, Trace: opts.Trace, Prof: prof,
	})
}
