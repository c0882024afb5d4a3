package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	ifpxq "repro"
	"repro/internal/obs"
)

const (
	// setups is how often a run sets the workload up; setup_s is the median.
	setups = 3
	// gateSeconds is the window length BENCHMARK.json fixes; the sample
	// floor applies to windows at least this long.
	gateSeconds = 15
	// minSamples is the fewest correct replies a full window must collect
	// for its percentiles to be trusted.
	minSamples = 200
)

// metricDef names one metric, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndDefs = []metricDef{
	{"latency_ms_p50", "ms", "lower", 0.15},
	{"throughput_qps", "1/s", "higher", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

var perLayerDefs = []metricDef{
	{name: "latency_ms_p95", unit: "ms", better: "lower"},
	{name: "parse_us", unit: "us", better: "lower"},
	{name: "compile_us", unit: "us", better: "lower"},
	{name: "optimize_us", unit: "us", better: "lower"},
	{name: "plan_ops", unit: "count", better: "lower"},
	{name: "plan_ops_opt", unit: "count", better: "lower"},
	{name: "rel_exec_ms", unit: "ms", better: "lower"},
	{name: "rel_step_ms", unit: "ms", better: "lower"},
	{name: "rel_join_ms", unit: "ms", better: "lower"},
	{name: "rel_dedup_ms", unit: "ms", better: "lower"},
	{name: "rel_rownum_ms", unit: "ms", better: "lower"},
	{name: "rel_mu_ms", unit: "ms", better: "lower"},
	{name: "rel_other_ms", unit: "ms", better: "lower"},
	{name: "rel_rows_out", unit: "count", better: "lower"},
	{name: "interp_exec_ms", unit: "ms", better: "lower"},
	{name: "fix_rounds", unit: "count", better: "lower"},
	{name: "fix_nodes_fed", unit: "count", better: "lower"},
	{name: "payload_calls", unit: "count", better: "lower"},
	{name: "index_probes_per_query", unit: "count", better: "higher"},
	{name: "index_fallbacks_per_query", unit: "count", better: "lower"},
	{name: "doc_open_ms", unit: "ms", better: "lower"},
	{name: "doc_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "snapshot_save_ms", unit: "ms", better: "lower"},
	{name: "snapshot_bytes_per_xml_byte", unit: "ratio", better: "lower"},
	{name: "plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "result_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache_hit_us", unit: "us", better: "lower"},
	{name: "serialize_us", unit: "us", better: "lower"},
	{name: "result_bytes", unit: "count", better: "lower"},
	{name: "xqd_overhead_us", unit: "us", better: "lower"},
	{name: "queue_wait_us", unit: "us", better: "lower"},
	{name: "shed_count", unit: "count", better: "lower"},
	{name: "alloc_mb_per_query", unit: "MB", better: "lower"},
	{name: "gc_pause_ms_per_s", unit: "ms/s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "traced_request_ms", unit: "ms", better: "lower"},
	{name: "traced_layer_share", unit: "ratio", better: "higher"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}

// env is where one invocation builds and writes.
type env struct {
	benchDir string // holds expected/ and out/
	repoRoot string // holds cmd/xqd
	outDir   string
	xqdBin   string
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"window_s"`
	Attempted int                `json:"requests_attempted"`
	Failed    int                `json:"requests_failed"`
	Samples   int                `json:"samples"`
	TailP     float64            `json:"tail_percentile"`
	TailMs    float64            `json:"tail_latency_ms"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// LayerSelfMs is the traced run's mean self time per request by span.
	LayerSelfMs map[string]float64 `json:"layer_self_ms,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// runWorkload sets the workload up, drives the measured window against xqd
// and, when traced, replays the head of the sequence in-process with spans.
func (e *env) runWorkload(ctx context.Context, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	docs, reqs := w.build(seed)
	oracle, err := loadOracle(e.benchDir, w, seed, docs, reqs)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, EndToEnd: map[string]float64{}}
	storeDir := filepath.Join(e.outDir, "store-"+w.name)
	defer os.RemoveAll(storeDir)

	// Set-up: parse + snapshot every document, start xqd until healthy,
	// warm up. Repeated from scratch; the last server is the one measured.
	var (
		srv      *xqd
		snap     snapshotStats
		setupSec []float64
	)
	for k := 0; k < setups; k++ {
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if snap, err = writeStore(storeDir, docs); err != nil {
			return nil, err
		}
		srv, err = startXqd(filepath.Join(e.outDir, "xqd-"+w.name+".log"), e.xqdBin, storeDir, w.xqdFlags, traced)
		if err != nil {
			return nil, err
		}
		warm := drive(ctx, srv, w, reqs, oracle, 0, warmupRequests, 0)
		setupSec = append(setupSec, time.Since(t0).Seconds())
		if ctx.Err() != nil || warm.failed > 0 {
			srv.stop()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("warm-up failed: %s", strings.Join(warm.failures, "; "))
		}
		if k < setups-1 {
			srv.stop()
		}
	}
	defer srv.stop()
	res.EndToEnd["setup_s"] = percentile(setupSec, 50)

	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	var mem0 memStats
	if traced {
		if mem0, err = srv.memStats(); err != nil {
			return nil, err
		}
	}
	load := drive(ctx, srv, w, reqs, oracle, warmupRequests, 0, time.Duration(seconds*float64(time.Second)))
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}

	res.Attempted, res.Failed, res.Samples = load.attempted, load.failed, len(load.latencyMs)
	res.Problems = append(res.Problems, load.failures...)
	res.EndToEnd["latency_ms_p50"] = percentile(load.latencyMs, 50)
	res.EndToEnd["throughput_qps"] = float64(res.Samples) / load.window.Seconds()
	res.TailP = tailPercentile(res.Samples)
	res.TailMs = percentile(load.latencyMs, res.TailP)
	res.Problems = append(res.Problems, checkWorkloadShape(w, reqs, before, after)...)
	if seconds >= gateSeconds && res.Samples < minSamples {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: %d samples in the window, need %d", w.name, res.Samples, minSamples))
	}
	if !traced {
		return res, nil
	}

	// Process-level layer numbers come from the measured window.
	mem1, err := srv.memStats()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	delta := obs.DeltaSeries(before, after)
	ok := float64(max(res.Samples, 1))
	pl := map[string]float64{
		"latency_ms_p95":              percentile(load.latencyMs, 95),
		"xqd_overhead_us":             percentile(load.overheadUs, 50),
		"queue_wait_us":               delta["xqd_queue_wait_seconds_sum"] / max(delta["xqd_queue_wait_seconds_count"], 1) * 1e6,
		"shed_count":                  after["xqd_admission_shed_total"],
		"index_probes_per_query":      delta["xqd_index_probes_total"] / ok,
		"index_fallbacks_per_query":   delta["xqd_index_fallbacks_total"] / ok,
		"doc_cache_hit_ratio":         hitRatio(delta["xqd_cache_hits_total"], delta["xqd_cache_misses_total"]),
		"result_cache_hit_ratio":      hitRatio(delta["xqd_result_cache_hits_total"], delta["xqd_result_cache_misses_total"]),
		"alloc_mb_per_query":          (mem1.totalAlloc - mem0.totalAlloc) / ok / (1 << 20),
		"gc_pause_ms_per_s":           mem1.pauseNsSince(mem0) / 1e6 / load.window.Seconds(),
		"peak_rss_mb":                 rss,
		"snapshot_save_ms":            float64(snap.saveNs) / 1e6,
		"snapshot_bytes_per_xml_byte": float64(snap.xqsBytes) / float64(snap.xmlBytes),
	}
	res.PerLayer = pl
	// The server is done; stop it so the replay has the machine to itself.
	srv.stop()
	if err := e.tracedRun(w, seed, reqs, oracle, storeDir, res); err != nil {
		return nil, err
	}
	return res, nil
}

// hitRatio is hits over lookups, 0 when there were no lookups.
func hitRatio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// checkWorkloadShape asserts from xqd's own counters that the window did
// what the workload says it does.
func checkWorkloadShape(w workload, reqs []request, before, after map[string]float64) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, w.name+": "+fmt.Sprintf(format, args...))
	}
	delta := obs.DeltaSeries(before, after)
	if n := after["xqd_admission_shed_total"]; n != 0 {
		fail("%v requests shed", n)
	}
	if w.coldDocs {
		if n := after["xqd_cache_hits_total"]; n != 0 {
			fail("%v document-cache hits on the all-miss workload", n)
		}
	} else if n := delta["xqd_cache_misses_total"]; n != 0 {
		fail("%v document-cache misses after set-up", n)
	}
	if reqs[0].cache {
		if n := delta["xqd_result_cache_misses_total"]; n != 0 {
			fail("%v result-cache misses after warm-up", n)
		}
	} else {
		for _, series := range []string{"xqd_plan_cache_hits_total", "xqd_plan_cache_misses_total",
			"xqd_result_cache_hits_total", "xqd_result_cache_misses_total"} {
			if n := after[series]; n != 0 {
				fail("cache=0 workload moved %s to %v", series, n)
			}
		}
	}
	return out
}

// tracedRun replays the head of the request sequence in-process, without and
// with spans. It fills the
// span-derived per-layer metrics and writes the spans to out/.
func (e *env) tracedRun(w workload, seed int64, reqs []request, oracle []outcome, storeDir string, res *runResult) error {
	opts := ifpxq.StoreOptions{Dir: storeDir}
	if w.coldDocs {
		opts.MaxDocs = hospitalCacheDocs
	}
	st, err := ifpxq.OpenStore(opts)
	if err != nil {
		return err
	}
	defer st.Close()
	rp := &replayer{w: w, reqs: reqs, oracle: oracle, store: st,
		plans: ifpxq.NewPlanCache(256), result: ifpxq.NewResultCache(512, st)}
	// One cycle of the sequence warms the caches; the untraced pass runs
	// before and after the traced one so drift cancels out of the overhead.
	first := len(reqs)
	if _, err := rp.pass(0, first, nil, false); err != nil {
		return err
	}
	plain, err := rp.pass(first, tracedRequests, nil, false)
	if err != nil {
		return err
	}
	plansBefore, parsedBefore := rp.plans.Stats(), rp.plans.ParseStats()
	rec := &recorder{t0: time.Now()}
	tot, err := rp.pass(first, tracedRequests, rec, true)
	if err != nil {
		return err
	}
	plansAfter, parsedAfter := rp.plans.Stats(), rp.plans.ParseStats()
	plain2, err := rp.pass(first, tracedRequests, nil, false)
	if err != nil {
		return err
	}
	plainNs := float64(plain.wallNs+plain2.wallNs) / 2

	selfNs := map[string]int64{}
	var requestNs int64
	for i, ns := range selfTimes(rec.spans) {
		s := rec.spans[i]
		selfNs[s.Name] += ns
		if s.Name == spanRequest {
			requestNs += s.EndNs - s.StartNs
		}
	}
	n := float64(tot.requests)
	perReq := func(name string, unit float64) float64 { return float64(selfNs[name]) / n / unit }
	res.LayerSelfMs = map[string]float64{}
	for _, l := range spanLayers {
		res.LayerSelfMs[l.span] = perReq(l.span, 1e6)
	}
	pl := res.PerLayer
	pl["parse_us"] = perReq(spanParse, 1e3)
	pl["compile_us"] = perReq(spanCompile, 1e3)
	pl["optimize_us"] = perReq(spanOptimize, 1e3)
	pl["rel_exec_ms"] = perReq(spanRelExec, 1e6)
	pl["interp_exec_ms"] = perReq(spanInterp, 1e6)
	pl["doc_open_ms"] = perReq(spanDocOpen, 1e6)
	pl["cache_hit_us"] = perReq(spanCache, 1e3)
	pl["serialize_us"] = perReq(spanSerialize, 1e3)
	for class, metric := range map[string]string{classStep: "rel_step_ms", classJoin: "rel_join_ms",
		classDedup: "rel_dedup_ms", classRowNum: "rel_rownum_ms", classMu: "rel_mu_ms", classOther: "rel_other_ms"} {
		pl[metric] = float64(tot.classNs[class]) / n / 1e6
	}
	pl["plan_ops"] = float64(tot.planOps) / n
	pl["plan_ops_opt"] = float64(tot.planOpsOpt) / n
	pl["rel_rows_out"] = float64(tot.relRowsOut) / n
	pl["fix_rounds"] = float64(tot.rounds) / n
	pl["fix_nodes_fed"] = float64(tot.nodesFed) / n
	pl["payload_calls"] = float64(tot.payloads) / n
	pl["result_bytes"] = float64(tot.resultBytes) / n
	hits := float64(plansAfter.Hits - plansBefore.Hits + parsedAfter.Hits - parsedBefore.Hits)
	misses := float64(plansAfter.Misses - plansBefore.Misses + parsedAfter.Misses - parsedBefore.Misses)
	pl["plan_cache_hit_ratio"] = hitRatio(hits, misses)
	pl["traced_request_ms"] = float64(requestNs) / n / 1e6
	pl["traced_layer_share"] = float64(requestNs-selfNs[spanRequest]) / float64(requestNs)
	pl["trace_overhead_pct"] = 100 * (float64(tot.wallNs) - plainNs) / plainNs

	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "trace-"+w.name+".json"), raw, 0o644)
}

// largestLayer names the span with the most self time, the replay's own
// glue aside.
func largestLayer(selfMs map[string]float64) (span, module string) {
	best := -1.0
	for _, l := range spanLayers {
		if l.span != spanRequest && selfMs[l.span] > best {
			best, span, module = selfMs[l.span], l.span, l.module
		}
	}
	return span, module
}
