package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

// cacheTestServer builds a server over one snapshot document whose backing
// file the test can rewrite, returning the snapshot path alongside the
// usual pair.
func cacheTestServer(t *testing.T) (*server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "d.xml"+store.Ext)
	// The filler keeps the root's subtree above the probe's minimum
	// window, so index-eligible steps actually probe rather than walk.
	doc, err := xmldoc.ParseString("<r><a/>"+strings.Repeat("<b/>", 300)+"</r>", "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(path, doc); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs, path
}

// TestStaleDocumentOverHTTP is the end-to-end regression for the stale
// serving bug: with both caches on, replacing a snapshot on disk must be
// visible on the very next request — the fingerprint check drops the
// document, the generation bump flushes the result cache, and the
// invalidation counters move in /stats.
func TestStaleDocumentOverHTTP(t *testing.T) {
	_, hs, path := cacheTestServer(t)
	q := url.QueryEscape(`count(doc("d.xml")//a)`)

	get := func(extra string) string {
		t.Helper()
		var resp queryResponse
		if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q+extra, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		return resp.Result
	}
	if got := get(""); got != "1" {
		t.Fatalf("first eval: %s", got)
	}
	if got := get(""); got != "1" {
		t.Fatalf("repeat eval: %s", got)
	}
	var warm statsResponse
	getJSON(t, hs.URL+"/stats", &warm)
	if warm.ResultCache.Hits != 1 || warm.ResultCache.Entries == 0 {
		t.Fatalf("repeat query missed the result cache: %+v", warm.ResultCache)
	}
	if warm.PlanCache.Hits == 0 {
		t.Fatalf("repeat query missed the plan cache: %+v", warm.PlanCache)
	}

	doc, err := xmldoc.ParseString("<r><a/><a/><a/></r>", "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // ensure the snapshot mtime advances
	if err := store.Save(path, doc); err != nil {
		t.Fatal(err)
	}

	if got := get(""); got != "3" {
		t.Fatalf("request after rewrite served a stale result: %s", got)
	}
	var stats statsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if stats.Cache.Invalidations == 0 {
		t.Fatalf("store invalidations did not move: %+v", stats.Cache)
	}
	if stats.ResultCache.Invalidations == 0 {
		t.Fatalf("result-cache invalidations did not move: %+v", stats.ResultCache)
	}
	if stats.Cache.Generation == 0 {
		t.Fatalf("store generation still 0: %+v", stats.Cache)
	}
	// The fresh result is itself cached again.
	if got := get(""); got != "3" {
		t.Fatalf("recached eval: %s", got)
	}
}

// TestStaleIndexedQueryOverHTTP extends the stale-document regression to
// the index probe path: an index-eligible query (a name-tested descendant
// step, probed from the persistent snapshot index) must see a snapshot
// rewrite on the very next request. A stale cached index over the old
// arena's pre ranks would return the old count here.
func TestStaleIndexedQueryOverHTTP(t *testing.T) {
	_, hs, path := cacheTestServer(t)
	q := url.QueryEscape(`count(doc("d.xml")//a)`)

	get := func() string {
		t.Helper()
		var resp queryResponse
		if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		return resp.Result
	}
	probes0, _ := xdm.IndexCounters()
	if got := get(); got != "1" {
		t.Fatalf("first eval: %s", got)
	}
	if probes, _ := xdm.IndexCounters(); probes == probes0 {
		t.Fatalf("descendant step did not probe the index")
	}

	doc, err := xmldoc.ParseString("<r><a/><a/><a/></r>", "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // ensure the snapshot mtime advances
	if err := store.Save(path, doc); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != "3" {
		t.Fatalf("indexed query after rewrite served a stale result: %s", got)
	}
}

// TestCachedReplyIsCompactJSON: a result-cache hit is written as one line
// of JSON with the result's markup unescaped, and decodes to the same
// result, count and fixpoints as an uncached reply; /stats still decodes.
func TestCachedReplyIsCompactJSON(t *testing.T) {
	_, hs, _ := cacheTestServer(t)
	q := url.QueryEscape(`with $x seeded by doc("d.xml")/r/a recurse $x/../a`)
	get := func(extra string) (string, queryResponse) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/query?engine=rel&q=" + q + extra)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out queryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		return string(body), out
	}
	_, want := get("&cache=0")
	get("")
	body, hit := get("")
	if strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "\n") {
		t.Fatalf("hit reply is not one line:\n%s", body)
	}
	if !strings.Contains(body, `"result":"<a/>"`) || strings.Contains(body, `\u003c`) {
		t.Fatalf("hit reply escapes the result's markup: %s", body)
	}
	if hit.Result != want.Result || hit.Count != want.Count || !reflect.DeepEqual(hit.Fixpoints, want.Fixpoints) {
		t.Fatalf("hit reply %+v differs from the cache=0 reply %+v", hit, want)
	}
	if len(hit.Fixpoints) != 1 {
		t.Fatalf("fixpoints %+v, want one site", hit.Fixpoints)
	}
	var stats statsResponse
	if code := getJSON(t, hs.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if stats.ResultCache.Hits != 1 || stats.ResultCache.Misses != 1 {
		t.Fatalf("the repeat query did not hit the result cache: %+v", stats.ResultCache)
	}
}

// BenchmarkCachedReply measures one result-cache hit through handleQuery,
// from the parsed request to the written reply: the Table 2 dialogs query
// on its play document, whose result serializes to about 48 KB.
func BenchmarkCachedReply(b *testing.B) {
	dir := b.TempDir()
	doc, err := xmldoc.ParseString(xmlgen.Play(xmlgen.PlaySized()), "play.xml")
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Save(filepath.Join(dir, "play.xml"+store.Ext), doc); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	srv := newServer(st)
	req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(bench.DialogsQuery), nil)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.handleQuery(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	serve()
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
	if s := srv.resultCache.Stats(); s.Misses != 1 {
		b.Fatalf("the repeat query missed the result cache: %+v", s)
	}
}

// TestCacheParam checks the ?cache= escape hatch: cache=0 evaluations
// leave both caches untouched, cache=2 is a 400, and ?cache=0 composes
// with a warm cache (the bypass recomputes, the next cached request still
// hits).
func TestCacheParam(t *testing.T) {
	_, hs, _ := cacheTestServer(t)
	q := url.QueryEscape(`count(doc("d.xml")//a)`)

	var resp queryResponse
	for i := 0; i < 2; i++ {
		if code := getJSON(t, hs.URL+"/query?engine=rel&cache=0&q="+q, &resp); code != http.StatusOK {
			t.Fatalf("cache=0 status %d", code)
		}
	}
	var stats statsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if s := stats.PlanCache; s.Hits+s.Misses+int64(s.Entries) != 0 {
		t.Fatalf("cache=0 touched the plan cache: %+v", s)
	}
	if s := stats.ResultCache; s.Hits+s.Misses+int64(s.Entries) != 0 {
		t.Fatalf("cache=0 touched the result cache: %+v", s)
	}

	var e errorResponse
	if code := getJSON(t, hs.URL+"/query?cache=2&q="+q, &e); code != http.StatusBadRequest {
		t.Fatalf("cache=2 status %d, want 400", code)
	}

	// Warm the caches, bypass once, then hit again.
	if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &resp); code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if code := getJSON(t, hs.URL+"/query?engine=rel&cache=0&q="+q, &resp); code != http.StatusOK {
		t.Fatalf("bypass status %d", code)
	}
	if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &resp); code != http.StatusOK {
		t.Fatalf("hit status %d", code)
	}
	getJSON(t, hs.URL+"/stats", &stats)
	if stats.ResultCache.Hits != 1 || stats.ResultCache.Misses != 1 {
		t.Fatalf("bypass perturbed the cached path: %+v", stats.ResultCache)
	}
}

// TestCacheMetrics checks the /metrics cache families move with traffic:
// a repeated relational query lands one plan-cache and one result-cache
// hit, and the entries gauges go nonzero.
func TestCacheMetrics(t *testing.T) {
	_, hs := testServer(t, store.Options{})
	q := url.QueryEscape(fixpointQuery)

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		m, err := obs.ParsePromText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := scrape()
	var resp queryResponse
	for i := 0; i < 2; i++ {
		if code := getJSON(t, hs.URL+"/query?engine=rel&q="+q, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	after := scrape()
	delta := obs.DeltaSeries(before, after)
	for series, want := range map[string]float64{
		"xqd_plan_cache_hits_total":     1,
		"xqd_plan_cache_misses_total":   1,
		"xqd_result_cache_hits_total":   1,
		"xqd_result_cache_misses_total": 1,
	} {
		if delta[series] != want {
			t.Errorf("%s delta = %g, want %g", series, delta[series], want)
		}
	}
	for _, gauge := range []string{"xqd_plan_cache_entries", "xqd_result_cache_entries"} {
		if after[gauge] == 0 {
			t.Errorf("%s still 0 after a cached query", gauge)
		}
	}
	if _, ok := after["xqd_store_generation"]; !ok {
		t.Error("xqd_store_generation missing from the scrape")
	}
	// The uncached first evaluation resolves its name-tested steps through
	// the index probe path; the fallback series must scrape even at zero.
	if delta["xqd_index_probes_total"] <= 0 {
		t.Errorf("xqd_index_probes_total delta = %g, want > 0", delta["xqd_index_probes_total"])
	}
	if _, ok := after["xqd_index_fallbacks_total"]; !ok {
		t.Error("xqd_index_fallbacks_total missing from the scrape")
	}
}

// TestTimeoutTightensUnboundedDeadline pins the ?timeout_ms= contract on
// a server running with -query-timeout=0: "unbounded by default" must
// still let a request tighten the deadline, so the runaway query comes
// back as a 422 deadline truncation rather than hanging forever.
func TestTimeoutTightensUnboundedDeadline(t *testing.T) {
	srv, hs := testServer(t, store.Options{}, func(s *server) {
		s.queryTimeout = 0 // -query-timeout=0: no server-side deadline
		s.ctrl = admission.New(admission.Options{Capacity: 4, QueueLimit: 4, QueueTimeout: time.Second})
	})
	var e errorResponse
	code := getJSON(t, hs.URL+"/query?timeout_ms=100&q="+url.QueryEscape(runawayQuery), &e)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", code)
	}
	if e.Code != "IFPX0002" {
		t.Fatalf("code %q, want the deadline code IFPX0002", e.Code)
	}
	if !strings.Contains(e.Error, "deadline") {
		t.Fatalf("error does not mention the deadline: %q", e.Error)
	}
	if n := srv.metrics.truncations.With("IFPX0002").Value(); n != 1 {
		t.Fatalf("timeouts counter = %d, want 1", n)
	}
}
