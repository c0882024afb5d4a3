package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

func testServer(t *testing.T, opts store.Options, configure ...func(*server)) (*server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	doc, err := xmldoc.ParseString(xmlgen.Curriculum(xmlgen.CurriculumSized(100)), "curriculum.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(filepath.Join(dir, "curriculum.xml"+store.Ext), doc); err != nil {
		t.Fatal(err)
	}
	opts.Dir = dir
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st)
	// Configuration runs before the listener exists: handler goroutines
	// only ever read fields like maxRows, never race a test-side write.
	for _, c := range configure {
		c(srv)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

const fixpointQuery = `
for $c in doc("curriculum.xml")/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestQueryEndpoint(t *testing.T) {
	_, hs := testServer(t, store.Options{})
	q := url.QueryEscape(fixpointQuery)

	var first queryResponse
	if code := getJSON(t, hs.URL+"/query?q="+q, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(first.Fixpoints) == 0 {
		t.Fatal("no fixpoint instrumentation in response")
	}

	// Same query on the relational engine must agree; warm cache must
	// serve the document without any load wait.
	var rel queryResponse
	if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &rel); code != http.StatusOK {
		t.Fatalf("rel status %d", code)
	}
	if rel.Result != first.Result {
		t.Fatalf("engines disagree: %q vs %q", rel.Result, first.Result)
	}

	var stats statsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if stats.Cache.Misses != 1 || stats.Cache.Hits < 1 {
		t.Fatalf("cache stats %+v: want exactly 1 miss and ≥1 hit", stats.Cache)
	}
	if stats.Queries != 2 {
		t.Fatalf("queries = %d, want 2", stats.Queries)
	}
	if len(stats.Docs) != 1 || stats.Docs[0].Stats.Nodes == 0 {
		t.Fatalf("docs stats missing: %+v", stats.Docs)
	}
	// The snapshot-served document carries its persistent index from load.
	if ix := stats.Docs[0].Index; !ix.Present || !ix.Persistent || ix.Bytes <= 0 || ix.Lists == 0 {
		t.Fatalf("docs index info missing or wrong: %+v", stats.Docs[0].Index)
	}
}

// TestOptLevels checks the per-request optimizer switch: ?opt=0 runs the
// verbatim plan, ?opt=1 the rewritten one, and both answers (plus the
// fixpoint instrumentation) must agree byte for byte; a bad level is a 400.
func TestOptLevels(t *testing.T) {
	_, hs := testServer(t, store.Options{})
	q := url.QueryEscape(fixpointQuery)
	var o0, o1, def queryResponse
	if code := getJSON(t, hs.URL+"/query?engine=rel&opt=0&q="+q, &o0); code != http.StatusOK {
		t.Fatalf("opt=0 status %d", code)
	}
	if code := getJSON(t, hs.URL+"/query?engine=rel&opt=1&q="+q, &o1); code != http.StatusOK {
		t.Fatalf("opt=1 status %d", code)
	}
	if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &def); code != http.StatusOK {
		t.Fatalf("default status %d", code)
	}
	if o0.Result != o1.Result || def.Result != o1.Result {
		t.Fatalf("optimizer levels disagree: opt=0 %q opt=1 %q default %q", o0.Result, o1.Result, def.Result)
	}
	if fmt.Sprint(o0.Fixpoints) != fmt.Sprint(o1.Fixpoints) {
		t.Fatalf("fixpoint stats diverge across optimizer levels:\n opt=0 %+v\n opt=1 %+v", o0.Fixpoints, o1.Fixpoints)
	}
	var e errorResponse
	if code := getJSON(t, hs.URL+"/query?opt=2&q="+q, &e); code != http.StatusBadRequest {
		t.Fatalf("bad opt level: status %d (%+v)", code, e)
	}
}

func TestQueryErrors(t *testing.T) {
	_, hs := testServer(t, store.Options{})
	var e errorResponse
	if code := getJSON(t, hs.URL+"/query?q="+url.QueryEscape(`doc("nope.xml")`), &e); code != http.StatusNotFound {
		t.Fatalf("missing doc: status %d (%+v)", code, e)
	}
	if !strings.Contains(e.Error, "nope.xml") {
		t.Fatalf("error does not name the URI: %q", e.Error)
	}
	if code := getJSON(t, hs.URL+"/query?q=%28%28", &e); code != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d", code)
	}
	if code := getJSON(t, hs.URL+"/query", &e); code != http.StatusBadRequest {
		t.Fatalf("empty query: status %d", code)
	}
}

// TestConcurrentParallelQueries drives one xqd server with concurrent
// fixpoint requests over a cache held at one document for a two-document
// working set, so queries running in parallel race against eviction and
// reload under each other's pins. Every response must match the answer of
// a lone request byte for byte. Run under -race.
func TestConcurrentParallelQueries(t *testing.T) {
	dir := t.TempDir()
	uris := []string{"curriculum.xml", "hospital.xml"}
	xmls := []string{
		xmlgen.Curriculum(xmlgen.CurriculumSized(60)),
		xmlgen.Hospital(xmlgen.HospitalSized(200)),
	}
	qs := []string{
		fixpointQuery,
		`count(with $x seeded by doc("hospital.xml")/hospital/patient[diagnosis = "hd"]
		 recurse $x/parents/patient[diagnosis = "hd"])`,
	}
	for i, uri := range uris {
		doc, err := xmldoc.ParseString(xmls[i], uri)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(filepath.Join(dir, uri+store.Ext), doc); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(store.Options{Dir: dir, MaxDocs: 1, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st)
	// Result caching off: a hit would skip document resolution and stop
	// exercising eviction/reload races. The plan cache stays on — shared
	// compiled plans across concurrent evaluations are a race target too.
	srv.resultCache = nil
	hs := httptest.NewServer(srv)
	defer hs.Close()

	want := make([][]string, len(qs))
	for i, q := range qs {
		want[i] = make([]string, 2)
		for e, engine := range []string{"interp", "rel"} {
			var resp queryResponse
			if code := getJSON(t, hs.URL+"/query?engine="+engine+"&q="+url.QueryEscape(q), &resp); code != http.StatusOK {
				t.Fatalf("baseline q%d %s: status %d", i, engine, code)
			}
			want[i][e] = resp.Result
		}
	}

	const workers, rounds = 10, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(qs)
				e := (w + r/2) % 2
				engine := []string{"interp", "rel"}[e]
				hresp, err := http.Get(fmt.Sprintf("%s/query?engine=%s&q=%s",
					hs.URL, engine, url.QueryEscape(qs[i])))
				if err != nil {
					errs <- err
					return
				}
				var resp queryResponse
				code := hresp.StatusCode
				err = json.NewDecoder(hresp.Body).Decode(&resp)
				hresp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("worker %d q%d %s: status %d", w, i, engine, code)
					return
				}
				if resp.Result != want[i][e] {
					errs <- fmt.Errorf("worker %d q%d %s: result diverged from the lone request's", w, i, engine)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := st.Cache().Stats(); s.Evictions == 0 {
		t.Error("cache never evicted: capacity pressure not exercised")
	}
}

// TestConcurrentQueries hammers one server from many goroutines — the
// shared-arena parallel read path — and checks every response is
// byte-identical to the sequential answer.
func TestConcurrentQueries(t *testing.T) {
	_, hs := testServer(t, store.Options{Mmap: true})
	q := url.QueryEscape(fixpointQuery)
	var want queryResponse
	getJSON(t, hs.URL+"/query?q="+q, &want)

	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		engine := "interp"
		if w%2 == 1 {
			engine = "rel"
		}
		wg.Add(1)
		go func(engine string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var got queryResponse
				resp, err := http.Get(hs.URL + "/query?engine=" + engine + "&q=" + q)
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if got.Result != want.Result {
					errs <- fmt.Errorf("%s: result diverged", engine)
					return
				}
			}
		}(engine)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMetricsEndpoint checks that /metrics is valid Prometheus text whose
// counters move with traffic: query outcomes, per-engine latency
// histograms, fixpoint rounds, cache and admission families.
func TestMetricsEndpoint(t *testing.T) {
	_, hs := testServer(t, store.Options{})
	q := url.QueryEscape(fixpointQuery)

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		m, err := obs.ParsePromText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := scrape()

	var resp queryResponse
	if code := getJSON(t, hs.URL+"/query?q="+q, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &resp); code != http.StatusOK {
		t.Fatalf("rel status %d", code)
	}
	var e errorResponse
	if code := getJSON(t, hs.URL+"/query?q=%28%28", &e); code != http.StatusBadRequest {
		t.Fatalf("parse error status %d", code)
	}
	// Three guaranteed result items, independent of the generated data.
	if code := getJSON(t, hs.URL+"/query?q="+url.QueryEscape("1,2,3"), &resp); code != http.StatusOK {
		t.Fatalf("literal status %d", code)
	}

	delta := obs.DeltaSeries(before, scrape())
	for series, want := range map[string]float64{
		`xqd_queries_total{outcome="ok"}`:          3,
		`xqd_queries_total{outcome="parse_error"}`: 1,
		`xqd_query_seconds_count{engine="interp"}`: 2,
		`xqd_query_seconds_count{engine="rel"}`:    1,
		`xqd_queue_wait_seconds_count`:             3,
		`xqd_cache_misses_total`:                   1,
		`xqd_admission_admitted_total`:             3,
	} {
		if delta[series] != want {
			t.Errorf("%s delta = %g, want %g\n(all deltas: %v)", series, delta[series], want, delta)
		}
	}
	// The fixpoint query runs real rounds; the exact count is the engines'
	// business, the metric just has to move.
	if delta["xqd_fixpoint_rounds_total"] == 0 {
		t.Error("xqd_fixpoint_rounds_total did not move across two fixpoint queries")
	}
	if delta["xqd_result_rows_total"] < 3 {
		t.Errorf("xqd_result_rows_total delta = %g, want >= 3", delta["xqd_result_rows_total"])
	}
}

// TestAnalyzeParam checks ?analyze=1: the response carries the rendered
// EXPLAIN ANALYZE report (phases, annotated plan on rel, per-round fixpoint
// spans), the result agrees with a plain evaluation, and the query ID in
// the report matches the X-Query-ID header.
func TestAnalyzeParam(t *testing.T) {
	_, hs := testServer(t, store.Options{})
	q := url.QueryEscape(fixpointQuery)

	var plain queryResponse
	if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &plain); code != http.StatusOK {
		t.Fatalf("plain status %d", code)
	}
	hresp, err := http.Get(hs.URL + "/query?engine=rel&analyze=1&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var an queryResponse
	if err := json.NewDecoder(hresp.Body).Decode(&an); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", hresp.StatusCode)
	}
	if an.Result != plain.Result {
		t.Fatalf("analyze perturbed the result: %q vs %q", an.Result, plain.Result)
	}
	if an.QueryID == "" || an.QueryID != hresp.Header.Get("X-Query-ID") {
		t.Fatalf("query id %q vs header %q", an.QueryID, hresp.Header.Get("X-Query-ID"))
	}
	for _, want := range []string{
		"explain analyze " + an.QueryID, "phase exec",
		"calls=", "fixpoint site", "round 0: fed=",
	} {
		if !strings.Contains(an.Analyze, want) {
			t.Errorf("analyze output misses %q:\n%s", want, an.Analyze)
		}
	}
	// The plain query warmed the plan cache, so the analyze run above hit
	// it and its report must show the cache win: no compile or optimize
	// phase. ?cache=0 bypasses the cache and restores the full pipeline.
	for _, absent := range []string{"phase compile", "phase optimize"} {
		if strings.Contains(an.Analyze, absent) {
			t.Errorf("analyze on a warm plan cache still reports %q:\n%s", absent, an.Analyze)
		}
	}
	var cold queryResponse
	if code := getJSON(t, hs.URL+"/query?engine=rel&analyze=1&cache=0&q="+q, &cold); code != http.StatusOK {
		t.Fatalf("cache=0 analyze status %d", code)
	}
	if !strings.Contains(cold.Analyze, "phase compile") {
		t.Errorf("cache=0 analyze misses the compile phase:\n%s", cold.Analyze)
	}
	if cold.Result != plain.Result {
		t.Fatalf("cache=0 analyze perturbed the result: %q vs %q", cold.Result, plain.Result)
	}
	// The interpreter engine has no plan stage but still reports phases
	// and per-round spans.
	var interp queryResponse
	if code := getJSON(t, hs.URL+"/query?analyze=1&q="+q, &interp); code != http.StatusOK {
		t.Fatalf("interp analyze status %d", code)
	}
	if !strings.Contains(interp.Analyze, "fixpoint site") {
		t.Errorf("interp analyze misses fixpoint spans:\n%s", interp.Analyze)
	}
	var e errorResponse
	if code := getJSON(t, hs.URL+"/query?analyze=2&q="+q, &e); code != http.StatusBadRequest {
		t.Fatalf("bad analyze value: status %d", code)
	}
}

// TestRequestLog checks the structured per-request line: one line per
// request through the injectable logf, carrying the query ID, outcome, and
// counters the operator greps for.
func TestRequestLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	_, hs := testServer(t, store.Options{}, func(s *server) {
		s.logRequests = true
		s.logf = func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	var resp queryResponse
	if code := getJSON(t, hs.URL+"/query?engine=rel&q="+url.QueryEscape(fixpointQuery), &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var e errorResponse
	if code := getJSON(t, hs.URL+"/query?q=%28%28", &e); code != http.StatusBadRequest {
		t.Fatalf("parse error status %d", code)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "id="+resp.QueryID) ||
		!strings.Contains(lines[0], "engine=rel") ||
		!strings.Contains(lines[0], "outcome=ok") ||
		!strings.Contains(lines[0], "rounds=") {
		t.Errorf("ok line missing fields: %q", lines[0])
	}
	if !strings.Contains(lines[1], "outcome=parse_error") {
		t.Errorf("error line missing outcome: %q", lines[1])
	}
}
