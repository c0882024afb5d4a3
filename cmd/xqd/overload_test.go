package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/leaktest"
	"repro/internal/store"
)

// runawayQuery never converges: the recursion body constructs fresh nodes
// every round, so only a budget can end it.
const runawayQuery = `count(with $x seeded by <a/> recurse <b/>)`

func postQuery(t *testing.T, base string, body string) (*http.Response, errorResponse) {
	t.Helper()
	resp, err := http.Post(base+"/query", "application/xquery", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	decodeBody(t, resp, &e)
	return resp, e
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestBodyTooLarge: a POST body over -max-body must be a 413 with the
// typed code, never a silently truncated (and then misparsed) query.
func TestBodyTooLarge(t *testing.T) {
	_, hs := testServer(t, store.Options{}, func(s *server) { s.maxBody = 64 })
	big := "count((" + strings.Repeat("1,", 200) + "1))"
	resp, e := postQuery(t, hs.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%+v)", resp.StatusCode, e)
	}
	if e.Code != codeBodyTooLarge {
		t.Fatalf("code %q, want %q", e.Code, codeBodyTooLarge)
	}
	// A body exactly at the limit still evaluates.
	small := "count((1,2,3))"
	if len(small) > 64 {
		t.Fatal("fixture error")
	}
	resp2, err := http.Post(hs.URL+"/query", "application/xquery", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	var q queryResponse
	decodeBody(t, resp2, &q)
	if resp2.StatusCode != http.StatusOK || q.Result != "3" {
		t.Fatalf("small body: status %d result %q", resp2.StatusCode, q.Result)
	}
}

// TestParamValidation: a malformed ?timeout_ms= is a 400, while the retired
// ?p= is ignored like any unknown parameter — any value answers exactly as
// a request without it.
func TestParamValidation(t *testing.T) {
	_, hs := testServer(t, store.Options{})
	q := url.QueryEscape(fixpointQuery)

	var e errorResponse
	if code := getJSON(t, hs.URL+"/query?timeout_ms=0&q="+q, &e); code != http.StatusBadRequest {
		t.Fatalf("timeout_ms=0: status %d, want 400", code)
	}
	if code := getJSON(t, hs.URL+"/query?timeout_ms=abc&q="+q, &e); code != http.StatusBadRequest {
		t.Fatalf("timeout_ms=abc: status %d, want 400", code)
	}

	// The reply minus its per-request fields (query id, timings).
	reply := func(params string) queryResponse {
		t.Helper()
		var r queryResponse
		if code := getJSON(t, hs.URL+"/query?cache=0&q="+q+params, &r); code != http.StatusOK {
			t.Fatalf("%q: status %d, want 200", params, code)
		}
		r.QueryID, r.ElapsedUs, r.DocWaitUs = "", 0, 0
		return r
	}
	base := reply("")
	for _, p := range []string{"&p=-1", "&p=4096", "&p=nope"} {
		if got := reply(p); !reflect.DeepEqual(got, base) {
			t.Fatalf("%q: reply diverges from the one without p:\n got: %+v\nwant: %+v", p, got, base)
		}
	}
}

// TestDeadlineTruncation: a runaway query under ?timeout_ms= comes back
// as a 422 with the typed deadline code and partial fixpoint stats, the
// timeout counter moves, and no evaluation goroutines leak. Run under -race.
func TestDeadlineTruncation(t *testing.T) {
	srv, hs := testServer(t, store.Options{})
	before := runtime.NumGoroutine()

	var e errorResponse
	code := getJSON(t, hs.URL+"/query?timeout_ms=100&q="+url.QueryEscape(runawayQuery), &e)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%+v)", code, e)
	}
	if e.Code != "IFPX0002" {
		t.Fatalf("code %q, want IFPX0002", e.Code)
	}
	if n := srv.metrics.truncations.With("IFPX0002").Value(); n != 1 {
		t.Fatalf("timeouts counter = %d, want 1", n)
	}
	// The server must still answer ordinary queries afterwards.
	var q queryResponse
	if code := getJSON(t, hs.URL+"/query?q="+url.QueryEscape(fixpointQuery), &q); code != http.StatusOK {
		t.Fatalf("follow-up query: status %d", code)
	}
	// Drop keep-alive connections so the leak check sees evaluation
	// goroutines, not idle HTTP plumbing.
	http.DefaultClient.CloseIdleConnections()
	leaktest.Wait(t, before)
}

// TestRowBudgetTruncation: a server-wide -max-rows budget truncates with
// the typed rows code on both engines.
func TestRowBudgetTruncation(t *testing.T) {
	_, hs := testServer(t, store.Options{}, func(s *server) { s.maxRows = 3 })
	for _, engine := range []string{"interp", "rel"} {
		var e errorResponse
		code := getJSON(t, hs.URL+"/query?engine="+engine+"&q="+url.QueryEscape(fixpointQuery), &e)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%+v)", engine, code, e)
		}
		if e.Code != "IFPX0004" {
			t.Fatalf("%s: code %q, want IFPX0004", engine, e.Code)
		}
	}
}

// holdSlot fires a runaway query that occupies one admission slot for
// roughly ms milliseconds and returns a channel that closes when it ends.
func holdSlot(t *testing.T, base string, ms int) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(fmt.Sprintf("%s/query?timeout_ms=%d&q=%s", base, ms, url.QueryEscape(runawayQuery)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	return done
}

func healthCode(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func waitInflight(t *testing.T, srv *server, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.ctrl.Stats().InFlight >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("admission never reached %d in-flight", n)
}

// TestShedAndHealth: with capacity 1 and no queue, a second concurrent
// query is shed with 429 + Retry-After and the typed code, /healthz
// degrades to 503 while saturated, and both recover once the slot frees.
func TestShedAndHealth(t *testing.T) {
	srv, hs := testServer(t, store.Options{}, func(s *server) {
		s.ctrl = admission.New(admission.Options{Capacity: 1, QueueLimit: 0})
	})

	if code := healthCode(t, hs.URL); code != http.StatusOK {
		t.Fatalf("healthz before load: %d", code)
	}

	done := holdSlot(t, hs.URL, 600)
	waitInflight(t, srv, 1)

	resp, err := http.Get(hs.URL + "/query?q=" + url.QueryEscape("1+1"))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	ra := resp.Header.Get("Retry-After")
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, e)
	}
	if e.Code != codeShed {
		t.Fatalf("code %q, want %q", e.Code, codeShed)
	}
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if code := healthCode(t, hs.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz under saturation: %d, want 503", code)
	}

	<-done
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if healthCode(t, hs.URL) == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var q queryResponse
	if code := getJSON(t, hs.URL+"/query?q="+url.QueryEscape("1+1"), &q); code != http.StatusOK {
		t.Fatalf("query after recovery: status %d", code)
	}
	st := srv.ctrl.Stats()
	if st.Shed == 0 {
		t.Fatalf("admission stats show no shed: %+v", st)
	}
}

// TestQueueTimeout: with capacity 1 and a short queue deadline, a queued
// request is rejected with 429 and the queue-timeout code rather than
// waiting forever.
func TestQueueTimeout(t *testing.T) {
	srv, hs := testServer(t, store.Options{}, func(s *server) {
		s.ctrl = admission.New(admission.Options{Capacity: 1, QueueLimit: 4, QueueTimeout: 50 * time.Millisecond})
	})
	done := holdSlot(t, hs.URL, 800)
	waitInflight(t, srv, 1)

	resp, err := http.Get(hs.URL + "/query?q=" + url.QueryEscape("1+1"))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, e)
	}
	if e.Code != codeQueueTimeout {
		t.Fatalf("code %q, want %q", e.Code, codeQueueTimeout)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-done
	if st := srv.ctrl.Stats(); st.TimedOut == 0 {
		t.Fatalf("admission stats show no queue timeout: %+v", st)
	}
}

// TestClientDisconnectDrains: clients that give up mid-query (while
// admitted or while queued) must not leak goroutines or capacity. Run
// under -race.
func TestClientDisconnectDrains(t *testing.T) {
	srv, hs := testServer(t, store.Options{}, func(s *server) {
		s.ctrl = admission.New(admission.Options{Capacity: 1, QueueLimit: 8, QueueTimeout: 5 * time.Second})
	})
	before := runtime.NumGoroutine()

	// One admitted runaway and two queued requests, all abandoned.
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
			hs.URL+"/query?timeout_ms=5000&q="+url.QueryEscape(runawayQuery), nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
	}

	// Capacity must be whole again: a normal query goes straight through.
	deadline := time.Now().Add(3 * time.Second)
	for {
		var q queryResponse
		if code := getJSON(t, hs.URL+"/query?q="+url.QueryEscape("1+1"), &q); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity never recovered after disconnects: %+v", srv.ctrl.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections()
	leaktest.Wait(t, before)
}

// TestPanicRecovery: a panicking handler is a 500 with the typed code and
// a counter tick — the process and other endpoints keep working.
func TestPanicRecovery(t *testing.T) {
	srv, hs := testServer(t, store.Options{}, func(s *server) {
		s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	})
	resp, err := http.Get(hs.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if e.Code != codePanic {
		t.Fatalf("code %q, want %q", e.Code, codePanic)
	}
	if n := srv.metrics.panics.Value(); n != 1 {
		t.Fatalf("panics counter = %d, want 1", n)
	}
	var q queryResponse
	if code := getJSON(t, hs.URL+"/query?q="+url.QueryEscape("1+1"), &q); code != http.StatusOK {
		t.Fatalf("query after panic: status %d", code)
	}
}

// TestHealthzDraining: the draining flag flips /healthz to 503 so load
// balancers stop routing before shutdown completes.
func TestHealthzDraining(t *testing.T) {
	srv, hs := testServer(t, store.Options{})
	srv.draining.Store(true)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	var stats statsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if !stats.Draining {
		t.Fatal("/stats does not report draining")
	}
}
