// Command xqd serves XQuery (with the paper's inflationary fixed point
// operator) over HTTP against a persistent document store: fn:doc URIs
// resolve snapshot-first through a shared bounded document cache, so a
// warm document is never re-parsed and concurrent queries execute in
// parallel over the same immutable arenas, each request pinning the
// documents it touches for exactly its own lifetime.
//
// The server is built to survive overload. Every query passes an
// admission controller (a semaphore counting concurrently evaluating
// queries, with a bounded FIFO wait queue); requests that do not fit
// are shed with 429 + Retry-After instead of stacking goroutines. Every
// admitted query runs under a resource budget — wall-clock deadline,
// fixpoint round cap, row-materialization cap — and a truncated query
// returns 422 with a typed code and the partial fixpoint statistics it
// collected. Handler panics become a 500 and a counter, never a dead
// process, and SIGINT/SIGTERM drains in-flight queries before closing
// the store.
//
// Usage:
//
//	xqd -store snapshots/ [-addr :8090] [-mmap] [-cache-bytes N] [-cache-docs N]
//	    [-plan-cache N] [-result-cache N]
//	    [-query-timeout 30s] [-max-concurrent N]
//	    [-queue-limit N] [-queue-timeout 15s] [-max-body N]
//	    [-max-rows N] [-max-rounds N] [-drain-timeout 10s]
//
// Every query evaluates its fixpoint rounds sequentially; the server's
// parallelism is across requests.
//
// Repeat queries are served from two caches layered over the store: a
// compiled-plan cache (parsed queries + optimized relational plans, keyed
// by source text and compile options) and a result cache (complete
// results only, keyed by the query and budget, valid for exactly one
// store generation — any document replaced on disk, evicted, or purged
// flushes it). ?cache=0 bypasses both for one request; -plan-cache 0 /
// -result-cache 0 disable them server-wide.
//
// Endpoints:
//
//	GET/POST /query?q=…&engine=interp|rel&mode=auto|naive|delta&opt=0|1&timeout_ms=N&cache=0|1
//	    evaluates q (POST bodies carry the query text when q is absent)
//	    under the engine, mode and optimizer level named in ifpxq's text
//	    forms (interp, auto and 1 when absent; there is no server-wide
//	    default flag), and returns JSON including elapsed_us and
//	    doc_wait_us — the part of the latency spent resolving documents,
//	    0 on a warm cache.
//	    timeout_ms tightens the deadline below -query-timeout; evaluation
//	    is cancelled when the client disconnects. Unknown parameters
//	    (including the retired p=N) are ignored.
//	GET /stats    cache, admission, and overload counters plus per-document
//	    arena statistics
//	GET /healthz  liveness probe; 503 while draining or when the admission
//	    queue is saturated (the next request would be shed)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	ifpxq "repro"
	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xdm"
)

// Server-level error codes, disjoint from the IFPX evaluation codes so
// clients can tell transport-layer rejections from query outcomes.
const (
	codeShed         = "XQDS0001" // admission queue full, request shed
	codeQueueTimeout = "XQDS0002" // queued past the queue deadline
	codeBodyTooLarge = "XQDS0003" // POST body over -max-body
	codePanic        = "XQDS0004" // handler panic (reported, not fatal)
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		storeDir   = flag.String("store", "", "snapshot store directory (required)")
		mmap       = flag.Bool("mmap", false, "open snapshots via mmap")
		cacheBytes = flag.Int64("cache-bytes", 0, "document cache byte budget (0 = unbounded)")
		cacheDocs  = flag.Int("cache-docs", 0, "document cache entry budget (0 = unbounded)")
		noParse    = flag.Bool("no-parse", false, "serve snapshots only, never parse XML")
		planCacheN = flag.Int("plan-cache", 256, "compiled-plan cache entries (0 = disabled); also bounds the parsed-query cache")
		resCacheN  = flag.Int("result-cache", 512, "result cache entries (0 = disabled); entries flush when any store document changes")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-query evaluation deadline (0 = unbounded); ?timeout_ms= can only tighten it")
		maxConc      = flag.Int64("max-concurrent", 0, "admission capacity in concurrently evaluating queries (0 = 4×GOMAXPROCS)")
		queueLimit   = flag.Int("queue-limit", 64, "admission wait-queue length; beyond it requests are shed with 429")
		queueTimeout = flag.Duration("queue-timeout", 15*time.Second, "max time a request waits for admission before a 429")
		maxBody      = flag.Int64("max-body", 1<<20, "max POST body bytes; larger queries get 413")
		maxRows      = flag.Int64("max-rows", 0, "per-query row-materialization budget (0 = unbounded)")
		maxRounds    = flag.Int("max-rounds", 0, "per-query fixpoint round budget (0 = engine default cap)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight queries")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (separate listener, never the public one; empty = off)")
		logRequests  = flag.Bool("log-requests", true, "log one structured line per /query request")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "xqd: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	st, err := ifpxq.OpenStore(ifpxq.StoreOptions{
		Dir: *storeDir, Mmap: *mmap,
		MaxBytes: *cacheBytes, MaxDocs: *cacheDocs,
		NoParseFallback: *noParse,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqd:", err)
		os.Exit(1)
	}
	srv := newServer(st)
	srv.setCaches(*planCacheN, *resCacheN)
	srv.logRequests = *logRequests
	srv.queryTimeout = *queryTimeout
	srv.maxBody = *maxBody
	srv.maxRows = *maxRows
	srv.maxRounds = *maxRounds
	capacity := *maxConc
	if capacity <= 0 {
		capacity = int64(4 * runtime.GOMAXPROCS(0))
	}
	srv.ctrl = admission.New(admission.Options{
		Capacity:     capacity,
		QueueLimit:   *queueLimit,
		QueueTimeout: *queueTimeout,
	})

	// WriteTimeout must outlast the worst admissible request: queue wait
	// plus evaluation deadline plus serialization slack. An unbounded
	// query deadline means an unbounded write timeout.
	var writeTimeout time.Duration
	if *queryTimeout > 0 {
		writeTimeout = *queryTimeout + *queueTimeout + 10*time.Second
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	log.Printf("xqd: serving store %s on %s (mmap=%v, capacity=%d, queue=%d, query-timeout=%s)",
		*storeDir, *addr, *mmap, capacity, *queueLimit, *queryTimeout)

	if *debugAddr != "" {
		// pprof lives on its own listener so profiling endpoints are never
		// reachable through the public address.
		go func() {
			log.Printf("xqd: pprof on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("xqd: debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal("xqd: ", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		srv.draining.Store(true)
		log.Printf("xqd: signal received, draining in-flight queries (budget %s)", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("xqd: shutdown: %v", err)
		}
		st.Close()
		log.Printf("xqd: drained, store closed")
	}
}

// server shares one document store across all requests; net/http runs
// each request on its own goroutine, so the cache's pinning and
// singleflight are what make the parallel reads safe — and the admission
// controller is what keeps the goroutine count proportional to capacity
// rather than to offered load.
type server struct {
	store *store.Store
	ctrl  *admission.Controller
	// planCache holds parsed queries and compiled relational plans;
	// resultCache holds complete results pinned to the store generation.
	// Either may be nil (disabled via -plan-cache/-result-cache 0); a
	// request opts out of both with ?cache=0.
	planCache    *ifpxq.PlanCache
	resultCache  *ifpxq.ResultCache
	queryTimeout time.Duration // 0 = unbounded; ?timeout_ms= only tightens
	maxBody      int64
	maxRows      int64
	maxRounds    int
	started      time.Time
	draining     atomic.Bool
	metrics      *serverMetrics
	// logRequests emits one structured line per /query request through
	// logf (injectable for tests; defaults to log.Printf).
	logRequests bool
	logf        func(format string, args ...any)
	mux         *http.ServeMux
}

// serverMetrics is the server's one stats plane, served as Prometheus text
// on /metrics and read back by /stats: per-request counters updated on the
// hot path, plus Func gauges/counters that read the admission controller
// and the caches at scrape time so no state is tracked twice.
type serverMetrics struct {
	reg         *obs.Registry
	queries     *obs.CounterVec   // xqd_queries_total{outcome}
	truncations *obs.CounterVec   // xqd_budget_truncations_total{code}
	queueWait   *obs.Histogram    // xqd_queue_wait_seconds
	latency     *obs.HistogramVec // xqd_query_seconds{engine}
	rounds      *obs.Counter      // xqd_fixpoint_rounds_total
	rows        *obs.Counter      // xqd_result_rows_total
	panics      *obs.Counter      // xqd_panics_total
}

func newServerMetrics(s *server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:         reg,
		queries:     reg.CounterVec("xqd_queries_total", "Queries by outcome (ok, truncated, not_found, error, parse_error, bad_request, shed, queue_timeout, body_too_large, cancelled).", "outcome"),
		truncations: reg.CounterVec("xqd_budget_truncations_total", "Budget-truncated queries by typed error code.", "code"),
		queueWait:   reg.Histogram("xqd_queue_wait_seconds", "Admission queue wait per request.", nil),
		latency:     reg.HistogramVec("xqd_query_seconds", "Evaluation wall time per engine.", nil, "engine"),
		rounds:      reg.Counter("xqd_fixpoint_rounds_total", "Fixpoint rounds executed across all queries (including truncated ones)."),
		rows:        reg.Counter("xqd_result_rows_total", "Result items returned by successful queries."),
		panics:      reg.Counter("xqd_panics_total", "Handler panics recovered to 500s."),
	}
	reg.GaugeFunc("xqd_uptime_seconds", "Seconds since server start (monotonic clock).", func() float64 {
		return time.Since(s.started).Seconds()
	})
	reg.GaugeFunc("xqd_draining", "1 while the server drains for shutdown.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	admStat := func(pick func(admission.Stats) float64) func() float64 {
		return func() float64 { return pick(s.ctrl.Stats()) }
	}
	reg.CounterFunc("xqd_admission_admitted_total", "Requests that got capacity.",
		admStat(func(st admission.Stats) float64 { return float64(st.Admitted) }))
	reg.CounterFunc("xqd_admission_queued_total", "Requests that waited before a verdict.",
		admStat(func(st admission.Stats) float64 { return float64(st.Queued) }))
	reg.CounterFunc("xqd_admission_shed_total", "Immediate rejections (wait queue full).",
		admStat(func(st admission.Stats) float64 { return float64(st.Shed) }))
	reg.CounterFunc("xqd_admission_timed_out_total", "Rejections after the queue deadline.",
		admStat(func(st admission.Stats) float64 { return float64(st.TimedOut) }))
	reg.CounterFunc("xqd_admission_cancelled_total", "Waiters whose context ended first.",
		admStat(func(st admission.Stats) float64 { return float64(st.Cancelled) }))
	reg.GaugeFunc("xqd_admission_in_flight", "Queries currently admitted.",
		admStat(func(st admission.Stats) float64 { return float64(st.InFlight) }))
	reg.GaugeFunc("xqd_admission_waiting", "Current admission queue length.",
		admStat(func(st admission.Stats) float64 { return float64(st.Waiting) }))
	cacheStat := func(pick func(store.CacheStats) float64) func() float64 {
		return func() float64 { return pick(s.store.Cache().Stats()) }
	}
	reg.CounterFunc("xqd_cache_hits_total", "Document cache hits.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Hits) }))
	reg.CounterFunc("xqd_cache_misses_total", "Document cache misses.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Misses) }))
	reg.CounterFunc("xqd_cache_evictions_total", "Documents dropped by LRU pressure.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Evictions) }))
	reg.CounterFunc("xqd_cache_loads_total", "Loader calls (misses plus failures).",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Loads) }))
	reg.CounterFunc("xqd_cache_load_seconds_total", "Cumulative wall time inside the document loader.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.LoadNs) / 1e9 }))
	reg.GaugeFunc("xqd_cache_bytes", "Resident arena bytes.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Bytes) }))
	reg.GaugeFunc("xqd_cache_docs", "Resident documents.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Docs) }))
	reg.CounterFunc("xqd_cache_invalidations_total", "Documents dropped because their backing file changed on disk.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Invalidations) }))
	reg.GaugeFunc("xqd_store_generation", "Store cache generation; moves whenever any document leaves the cache.",
		cacheStat(func(st store.CacheStats) float64 { return float64(st.Generation) }))
	// Step-executor index counters: probes are steps resolved against a
	// document's name index; fallbacks are index-eligible steps that
	// reverted to the arena walk (probe heuristics declined). Process-wide
	// atomics, so the series survive cache evictions.
	reg.CounterFunc("xqd_index_probes_total", "Steps resolved through the name-index probe path.",
		func() float64 { probes, _ := xdm.IndexCounters(); return float64(probes) })
	reg.CounterFunc("xqd_index_fallbacks_total", "Index-eligible steps that fell back to the arena walk.",
		func() float64 { _, fallbacks := xdm.IndexCounters(); return float64(fallbacks) })
	// The plan/result cache families read through the nil-safe Stats
	// methods, so a server running with either cache disabled scrapes
	// zeros rather than losing the series.
	planStat := func(pick func(ifpxq.CacheStats) float64) func() float64 {
		return func() float64 { return pick(s.planCache.Stats()) }
	}
	reg.CounterFunc("xqd_plan_cache_hits_total", "Compiled-plan cache hits.",
		planStat(func(st ifpxq.CacheStats) float64 { return float64(st.Hits) }))
	reg.CounterFunc("xqd_plan_cache_misses_total", "Compiled-plan cache misses.",
		planStat(func(st ifpxq.CacheStats) float64 { return float64(st.Misses) }))
	reg.CounterFunc("xqd_plan_cache_evictions_total", "Compiled plans dropped by LRU pressure.",
		planStat(func(st ifpxq.CacheStats) float64 { return float64(st.Evictions) }))
	reg.GaugeFunc("xqd_plan_cache_entries", "Compiled plans resident.",
		planStat(func(st ifpxq.CacheStats) float64 { return float64(st.Entries) }))
	resStat := func(pick func(ifpxq.CacheStats) float64) func() float64 {
		return func() float64 { return pick(s.resultCache.Stats()) }
	}
	reg.CounterFunc("xqd_result_cache_hits_total", "Result cache hits (complete results served without evaluation).",
		resStat(func(st ifpxq.CacheStats) float64 { return float64(st.Hits) }))
	reg.CounterFunc("xqd_result_cache_misses_total", "Result cache misses.",
		resStat(func(st ifpxq.CacheStats) float64 { return float64(st.Misses) }))
	reg.CounterFunc("xqd_result_cache_evictions_total", "Results dropped by LRU pressure.",
		resStat(func(st ifpxq.CacheStats) float64 { return float64(st.Evictions) }))
	reg.CounterFunc("xqd_result_cache_invalidations_total", "Results flushed by store generation changes.",
		resStat(func(st ifpxq.CacheStats) float64 { return float64(st.Invalidations) }))
	reg.GaugeFunc("xqd_result_cache_entries", "Results resident.",
		resStat(func(st ifpxq.CacheStats) float64 { return float64(st.Entries) }))
	return m
}

func newServer(st *store.Store) *server {
	s := &server{
		store:        st,
		queryTimeout: 30 * time.Second,
		maxBody:      1 << 20,
		started:      time.Now(),
		mux:          http.NewServeMux(),
	}
	s.ctrl = admission.New(admission.Options{
		Capacity:     int64(4 * runtime.GOMAXPROCS(0)),
		QueueLimit:   64,
		QueueTimeout: 15 * time.Second,
	})
	s.setCaches(256, 512)
	s.logf = log.Printf
	s.metrics = newServerMetrics(s)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// setCaches sizes (or disables, at 0) the plan and result caches. The
// result cache is tied to the server's store, so a document replaced on
// disk flushes cached results through the generation bump.
func (s *server) setCaches(planN, resultN int) {
	s.planCache, s.resultCache = nil, nil
	if planN > 0 {
		s.planCache = ifpxq.NewPlanCache(planN)
	}
	if resultN > 0 {
		s.resultCache = ifpxq.NewResultCache(resultN, s.store)
	}
}

// ServeHTTP recovers handler panics into a 500 and a counter: one bad
// query must not take down the process or the other in-flight queries.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.metrics.panics.Inc()
			log.Printf("xqd: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
			writeErrorCode(w, http.StatusInternalServerError, codePanic,
				fmt.Errorf("internal error (recovered panic)"))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.ctrl.Saturated():
		http.Error(w, "saturated", http.StatusServiceUnavailable)
	default:
		io.WriteString(w, "ok\n")
	}
}

// queryResponse is the /query JSON shape.
type queryResponse struct {
	// QueryID identifies this evaluation in the request log, the
	// X-Query-ID header, and EXPLAIN ANALYZE output.
	QueryID   string `json:"query_id,omitempty"`
	Result    string `json:"result"`
	Count     int    `json:"count"`
	ElapsedUs int64  `json:"elapsed_us"`
	// DocWaitUs is the portion of ElapsedUs spent waiting for document
	// resolution (snapshot load / XML parse / cache). On a cache hit it
	// collapses to ~0: warm query latency excludes document load.
	DocWaitUs int64          `json:"doc_wait_us"`
	Fixpoints []fixpointJSON `json:"fixpoints,omitempty"`
	// Analyze is the rendered EXPLAIN ANALYZE report when the request
	// passed ?analyze=1.
	Analyze string `json:"analyze,omitempty"`
}

type fixpointJSON struct {
	Algorithm    string `json:"algorithm"`
	Distributive bool   `json:"distributive"`
	Executions   int    `json:"executions"`
	Depth        int    `json:"depth"`
	NodesFedBack int64  `json:"nodes_fed_back"`
	ResultSize   int    `json:"result_size"`
}

func fixpointsJSON(fps []ifpxq.FixpointStats) []fixpointJSON {
	var out []fixpointJSON
	for _, fp := range fps {
		out = append(out, fixpointJSON{
			Algorithm:    fp.Algorithm.String(),
			Distributive: fp.Distributive,
			Executions:   fp.Executions,
			Depth:        fp.Stats.Depth,
			NodesFedBack: fp.Stats.NodesFedBack,
			ResultSize:   fp.Stats.ResultSize,
		})
	}
	return out
}

type errorResponse struct {
	Error   string `json:"error"`
	Code    string `json:"code,omitempty"`
	QueryID string `json:"query_id,omitempty"`
	// Fixpoints carries the partial instrumentation a budget-truncated
	// query collected before it was cut off.
	Fixpoints []fixpointJSON `json:"fixpoints,omitempty"`
	// Analyze carries the partial EXPLAIN ANALYZE report of a
	// budget-truncated ?analyze=1 request.
	Analyze string `json:"analyze,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	qid := obs.NextQueryID()
	w.Header().Set("X-Query-ID", qid)
	reqStart := time.Now()
	// Outcome bookkeeping shared by the metrics plane and the request log;
	// every return path sets outcome exactly once (via fail or the success
	// tail) before the deferred accounting runs.
	outcome, errCode := "ok", ""
	var opts ifpxq.Options
	var rounds, rows int64
	var queueWait, execDur time.Duration
	defer func() {
		s.metrics.queries.With(outcome).Inc()
		if s.logRequests {
			s.logf("xqd: query id=%s engine=%s outcome=%s code=%s rounds=%d rows=%d queue_wait_us=%d exec_us=%d total_us=%d",
				qid, opts.Engine, outcome, errCode, rounds, rows,
				queueWait.Microseconds(), execDur.Microseconds(),
				time.Since(reqStart).Microseconds())
		}
	}()
	fail := func(status int, code string, err error, out string, resp errorResponse) {
		outcome, errCode = out, code
		resp.Error, resp.Code, resp.QueryID = err.Error(), code, qid
		writeJSON(w, status, resp)
	}
	badRequest := func(err error) {
		fail(http.StatusBadRequest, string(xdm.CodeOf(err)), err, "bad_request", errorResponse{})
	}

	params := r.URL.Query()
	src := params.Get("q")
	if src == "" && r.Method == http.MethodPost {
		// Read one byte past the cap so truncation is detectable rather
		// than silently evaluating a prefix of the query.
		body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
		if err != nil {
			badRequest(err)
			return
		}
		if int64(len(body)) > s.maxBody {
			fail(http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("query body exceeds %d bytes", s.maxBody), "body_too_large", errorResponse{})
			return
		}
		src = string(body)
	}
	if src == "" {
		badRequest(fmt.Errorf("missing query: pass ?q= or a POST body"))
		return
	}
	var err error
	if opts.Opt, err = ifpxq.ParseOptLevel(params.Get("opt")); err != nil {
		badRequest(err)
		return
	}
	if opts.Engine, err = ifpxq.ParseEngine(params.Get("engine")); err != nil {
		badRequest(err)
		return
	}
	if opts.Mode, err = ifpxq.ParseMode(params.Get("mode")); err != nil {
		badRequest(err)
		return
	}
	analyze := false
	switch params.Get("analyze") {
	case "", "0", "false":
	case "1", "true":
		analyze = true
	default:
		badRequest(fmt.Errorf("bad analyze %q (use 0 or 1)", params.Get("analyze")))
		return
	}
	// ?cache=0 is the per-request escape hatch: parse, compile, and
	// evaluate from scratch, touching neither cache.
	useCaches := true
	switch params.Get("cache") {
	case "", "1", "true":
	case "0", "false":
		useCaches = false
	default:
		badRequest(fmt.Errorf("bad cache %q (use 0 or 1)", params.Get("cache")))
		return
	}
	timeout := s.queryTimeout
	if tv := params.Get("timeout_ms"); tv != "" {
		ms, err := strconv.Atoi(tv)
		if err != nil || ms <= 0 {
			badRequest(fmt.Errorf("bad timeout_ms %q (need an integer > 0)", tv))
			return
		}
		if d := time.Duration(ms) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}

	// Parse before admission: malformed queries should not consume (or
	// wait for) evaluation capacity. A caching request parses through the
	// plan cache, so a repeat query skips the parser entirely (a nil
	// PlanCache parses directly).
	var q *ifpxq.Query
	if useCaches {
		q, err = s.planCache.Parse(src)
		opts.PlanCache, opts.ResultCache = s.planCache, s.resultCache
	} else {
		q, err = ifpxq.Parse(src)
	}
	if err != nil {
		fail(http.StatusBadRequest, string(xdm.CodeOf(err)), err, "parse_error", errorResponse{})
		return
	}

	acquireStart := time.Now()
	release, err := s.ctrl.Acquire(r.Context())
	queueWait = time.Since(acquireStart)
	s.metrics.queueWait.Observe(queueWait.Seconds())
	if err != nil {
		switch {
		case errors.Is(err, admission.ErrShed):
			w.Header().Set("Retry-After", "1")
			fail(http.StatusTooManyRequests, codeShed, err, "shed", errorResponse{})
		case errors.Is(err, admission.ErrQueueTimeout):
			w.Header().Set("Retry-After", "2")
			fail(http.StatusTooManyRequests, codeQueueTimeout, err, "queue_timeout", errorResponse{})
		default:
			// The client disconnected while queued; nobody reads a reply.
			outcome = "cancelled"
		}
		return
	}
	defer release()

	// The budget deadline is the authoritative cutoff (typed error,
	// deterministic message); the context deadline trails it as a backstop
	// so a stall between budget checkpoints still unwinds.
	ctx := r.Context()
	if timeout > 0 {
		opts.Deadline = time.Now().Add(timeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline.Add(100*time.Millisecond))
		defer cancel()
	}
	opts.Context = ctx
	opts.MaxRows = s.maxRows
	opts.MaxRounds = s.maxRounds

	// Resolve through an explicit session (rather than Options.Store) so
	// the handler can report how much of the latency was document I/O.
	sess := s.store.Session()
	defer sess.Close()
	var docWait atomic.Int64
	opts.Docs = func(uri string) (*xdm.Document, error) {
		t0 := time.Now()
		d, err := sess.Resolve(uri)
		docWait.Add(time.Since(t0).Nanoseconds())
		return d, err
	}

	start := time.Now()
	var res *ifpxq.Result
	var analyzeOut string
	if analyze {
		opts.Trace = obs.NewTrace(qid)
		var rep *ifpxq.AnalyzeReport
		rep, err = q.Analyze(opts)
		if rep != nil {
			res = rep.Result
			analyzeOut = rep.Render()
		}
	} else {
		res, err = q.Eval(opts)
	}
	elapsed := time.Since(start)
	execDur = elapsed
	s.metrics.latency.With(opts.Engine.String()).Observe(elapsed.Seconds())
	if res != nil {
		for _, fp := range res.Fixpoints {
			rounds += int64(fp.Stats.Depth)
		}
		s.metrics.rounds.Add(rounds)
	}
	if err != nil {
		status := http.StatusUnprocessableEntity
		out := "error"
		if xdm.IsNotFound(err) {
			status = http.StatusNotFound
			out = "not_found"
		}
		resp := errorResponse{}
		if xdm.IsBudget(err) {
			out = "truncated"
			s.metrics.truncations.With(string(xdm.CodeOf(err))).Inc()
			if res != nil {
				resp.Fixpoints = fixpointsJSON(res.Fixpoints)
			}
			resp.Analyze = analyzeOut
		}
		fail(status, string(xdm.CodeOf(err)), err, out, resp)
		return
	}
	rows = int64(res.Count())
	s.metrics.rows.Add(rows)
	resp := queryResponse{
		QueryID:   qid,
		Result:    res.String(),
		Count:     res.Count(),
		ElapsedUs: elapsed.Microseconds(),
		DocWaitUs: docWait.Load() / 1e3,
		Fixpoints: fixpointsJSON(res.Fixpoints),
		Analyze:   analyzeOut,
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteText(w)
}

// statsResponse is the /stats JSON shape.
type statsResponse struct {
	UptimeS   float64          `json:"uptime_s"`
	Queries   int64            `json:"queries"`
	Timeouts  int64            `json:"timeouts"`
	Panics    int64            `json:"panics"`
	Draining  bool             `json:"draining"`
	Admission admission.Stats  `json:"admission"`
	Store     storeJSON        `json:"store"`
	Cache     store.CacheStats `json:"cache"`
	// PlanCache and ResultCache snapshot the query-layer caches; all-zero
	// when the corresponding cache is disabled.
	PlanCache   ifpxq.CacheStats `json:"plan_cache"`
	ResultCache ifpxq.CacheStats `json:"result_cache"`
	Docs        []store.DocInfo  `json:"docs"`
}

type storeJSON struct {
	Dir  string `json:"dir"`
	Mmap bool   `json:"mmap"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// The counters are the /metrics series: queries answered, deadline
	// truncations, recovered panics. time.Since reads the monotonic clock
	// carried by started, so uptime never jumps with wall-clock adjustments.
	m := s.metrics
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeS:     time.Since(s.started).Seconds(),
		Queries:     m.queries.With("ok").Value(),
		Timeouts:    m.truncations.With(string(xdm.ErrDeadline)).Value(),
		Panics:      m.panics.Value(),
		Draining:    s.draining.Load(),
		Admission:   s.ctrl.Stats(),
		Store:       storeJSON{Dir: s.store.Dir(), Mmap: s.store.Mmap()},
		Cache:       s.store.Cache().Stats(),
		PlanCache:   s.planCache.Stats(),
		ResultCache: s.resultCache.Stats(),
		Docs:        s.store.Cache().Docs(),
	})
}

// writeJSON writes v as one line of JSON. Results are XML, so '<', '>'
// and '&' are written as themselves rather than HTML-escaped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}
