package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

// countingLoader parses a tiny distinct document per URI and counts calls.
func countingLoader(calls *int64) Loader {
	return func(uri string) (*xdm.Document, error) {
		atomic.AddInt64(calls, 1)
		return xmldoc.ParseString(fmt.Sprintf("<doc name=%q><a/><b/></doc>", uri), uri)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	var calls int64
	c := NewCache(CacheOptions{Loader: countingLoader(&calls), MaxDocs: 2})
	get := func(uri string) {
		t.Helper()
		p, err := c.Acquire(uri)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	get("a")
	get("b")
	get("a") // touch a: b becomes LRU
	get("c") // evicts b
	if !c.Contains("a") || !c.Contains("c") || c.Contains("b") {
		t.Fatalf("want {a,c} resident, have a=%v b=%v c=%v",
			c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
	get("b") // reload
	if calls != 4 {
		t.Fatalf("loader calls = %d, want 4", calls)
	}
	s := c.Stats()
	if s.Evictions != 2 || s.Misses != 4 || s.Hits != 1 || s.Docs != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCacheDocsMostRecentFirst: Docs lists the resident documents in
// recency order, a hit moving its document to the front, and reports
// each one's pins.
func TestCacheDocsMostRecentFirst(t *testing.T) {
	var calls int64
	c := NewCache(CacheOptions{Loader: countingLoader(&calls)})
	uris := func() string {
		var out []string
		for _, d := range c.Docs() {
			out = append(out, d.URI)
		}
		return strings.Join(out, " ")
	}
	var held *Pin
	for _, uri := range []string{"a", "b", "c"} {
		p, err := c.Acquire(uri)
		if err != nil {
			t.Fatal(err)
		}
		if uri == "b" {
			held = p
		} else {
			p.Release()
		}
	}
	if got := uris(); got != "c b a" {
		t.Fatalf("after loads: %q, want \"c b a\"", got)
	}
	for _, uri := range []string{"a", "b"} { // hits
		p, err := c.Acquire(uri)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	if got := uris(); got != "b a c" {
		t.Fatalf("after hits: %q, want \"b a c\"", got)
	}
	if docs := c.Docs(); docs[0].Pins != 1 || docs[1].Pins != 0 || docs[0].Stats.Nodes == 0 {
		t.Fatalf("docs %+v", docs)
	}
	held.Release()
	if calls != 3 {
		t.Fatalf("loader calls = %d, want 3", calls)
	}
}

func TestCacheByteBudget(t *testing.T) {
	var calls int64
	loader := countingLoader(&calls)
	// Find one doc's footprint, then budget for exactly two.
	probe, _ := loader("probe")
	one := probe.Stats().ArenaBytes
	c := NewCache(CacheOptions{Loader: loader, MaxBytes: 2*one + one/2})
	for _, uri := range []string{"a", "b", "c"} {
		p, err := c.Acquire(uri)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	s := c.Stats()
	if s.Docs != 2 || s.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 resident 1 evicted", s)
	}
	if s.Bytes > c.opts.MaxBytes {
		t.Fatalf("bytes %d over budget %d with nothing pinned", s.Bytes, c.opts.MaxBytes)
	}
}

func TestCachePinnedNotEvicted(t *testing.T) {
	var calls int64
	c := NewCache(CacheOptions{Loader: countingLoader(&calls), MaxDocs: 1})
	pa, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Acquire("b") // over budget; a and b both pinned → overshoot
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains("a") || !c.Contains("b") {
		t.Fatal("pinned documents were evicted")
	}
	if got := c.Stats().Pinned; got != 2 {
		t.Fatalf("pinned = %d, want 2", got)
	}
	// Same URI while pinned must return the identical document (stable
	// node identity during overlapping queries).
	pa2, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if pa2.Doc() != pa.Doc() {
		t.Fatal("second pin of a pinned URI returned a different document")
	}
	pa2.Release()
	pa.Release() // a unpinned → shed to budget (evicts a, the LRU)
	if c.Contains("a") || !c.Contains("b") {
		t.Fatalf("want a evicted after release, b resident: a=%v b=%v",
			c.Contains("a"), c.Contains("b"))
	}
	pb.Release()
	if s := c.Stats(); s.Docs != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheSingleflight(t *testing.T) {
	var calls int64
	gate := make(chan struct{})
	c := NewCache(CacheOptions{Loader: func(uri string) (*xdm.Document, error) {
		<-gate
		atomic.AddInt64(&calls, 1)
		return xmldoc.ParseString("<x/>", uri)
	}})
	const workers = 16
	var wg sync.WaitGroup
	docs := make([]*xdm.Document, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Acquire("same.xml")
			if err != nil {
				t.Error(err)
				return
			}
			docs[i] = p.Doc()
			p.Release()
		}(i)
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("loader ran %d times for one URI, want 1", calls)
	}
	for i := 1; i < workers; i++ {
		if docs[i] != docs[0] {
			t.Fatal("stampeding acquirers got different documents")
		}
	}
}

func TestCacheLoaderErrorNotCached(t *testing.T) {
	var calls int64
	c := NewCache(CacheOptions{Loader: func(uri string) (*xdm.Document, error) {
		atomic.AddInt64(&calls, 1)
		return nil, xdm.NotFoundf("no %q", uri)
	}})
	for i := 0; i < 2; i++ {
		if _, err := c.Acquire("missing.xml"); err == nil {
			t.Fatal("want error")
		}
	}
	if calls != 2 {
		t.Fatalf("loader calls = %d, want 2 (errors are not cached)", calls)
	}
	if s := c.Stats(); s.Errors != 2 || s.Docs != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCacheLoaderPanicReleasesFlight: a Loader that panics fails that
// Acquire with an error and leaves no flight behind, so the next Acquire
// of the URI loads again instead of waiting forever on a flight that
// never completes.
func TestCacheLoaderPanicReleasesFlight(t *testing.T) {
	var calls int64
	c := NewCache(CacheOptions{Loader: func(uri string) (*xdm.Document, error) {
		if atomic.AddInt64(&calls, 1) == 1 {
			panic("loader bug")
		}
		return xmldoc.ParseString("<doc/>", uri)
	}})
	first := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("Acquire panicked: %v", r)
			}
		}()
		_, err = c.Acquire("d.xml")
		return err
	}()
	if first == nil || !strings.Contains(first.Error(), "loader bug") {
		t.Errorf("first Acquire: %v, want an error naming the loader panic", first)
	}
	done := make(chan error, 1)
	go func() {
		p, err := c.Acquire("d.xml")
		if err == nil {
			p.Release()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second Acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Acquire still blocked on the panicked load's flight")
	}
	if s := c.Stats(); s.Errors != 1 || s.Misses != 1 || s.Docs != 1 {
		t.Errorf("stats %+v, want one error, one miss, one resident", s)
	}
}

func TestSessionPinsAndDedup(t *testing.T) {
	var calls int64
	c := NewCache(CacheOptions{Loader: countingLoader(&calls), MaxDocs: 1})
	sess := c.Session()
	d1, err := sess.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Resolve("b"); err != nil { // overshoots, both pinned
		t.Fatal(err)
	}
	d1again, err := sess.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	if d1again != d1 {
		t.Fatal("session returned different documents for one URI")
	}
	if calls != 2 {
		t.Fatalf("loader calls = %d, want 2", calls)
	}
	sess.Close()
	if s := c.Stats(); s.Pinned != 0 || s.Docs != 1 {
		t.Fatalf("after close: %+v", s)
	}
	sess.Close() // idempotent
}

func TestStoreResolutionOrder(t *testing.T) {
	dir := t.TempDir()
	xml := xmlgen.Curriculum(xmlgen.CurriculumSized(20))
	d, err := xmldoc.ParseString(xml, "snap.xml")
	if err != nil {
		t.Fatal(err)
	}

	// snap.xml: snapshot only. plain.xml: XML only. both.xml: both, with
	// DIFFERENT content in the snapshot — proving snapshot-first order.
	if err := Save(filepath.Join(dir, "snap.xml"+Ext), d); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "plain.xml"), "<plain><a/></plain>")
	writeFile(t, filepath.Join(dir, "both.xml"), "<fromxml/>")
	dboth, err := xmldoc.ParseString("<fromsnap/>", "both.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(filepath.Join(dir, "both.xml"+Ext), dboth); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.Session()
	defer sess.Close()

	got, err := sess.Resolve("snap.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("snapshot-backed doc has %d nodes, want %d", got.Len(), d.Len())
	}
	if _, err := sess.Resolve("plain.xml"); err != nil {
		t.Fatalf("XML fallback failed: %v", err)
	}
	both, err := sess.Resolve("both.xml")
	if err != nil {
		t.Fatal(err)
	}
	if xmldoc.Serialize(both.Root()) != "<fromsnap/>" {
		t.Fatalf("resolution order wrong: got %q, want the snapshot's content", xmldoc.Serialize(both.Root()))
	}

	_, err = sess.Resolve("missing.xml")
	if err == nil || !xdm.IsNotFound(err) {
		t.Fatalf("want not-found error, got %v", err)
	}
	for _, frag := range []string{"missing.xml", "snapshot", "file"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("not-found error %q does not name %q", err, frag)
		}
	}

	// Escapes are rejected.
	if _, err := sess.Resolve("../escape.xml"); err == nil {
		t.Fatal("path escape accepted")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsTruncatedFiles(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{"empty.xqs": "", "tiny.xqs": "XQSNAP\x00\x01short"} {
		path := filepath.Join(dir, name)
		writeFile(t, path, content)
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("Load(%s): want truncation error, got %v", name, err)
		}
		if _, err := LoadMmap(path); err == nil {
			t.Errorf("LoadMmap(%s): want error, got nil", name)
		}
	}
}

func TestSaveCreatesParentDirs(t *testing.T) {
	d, err := xmldoc.ParseString("<x><y/></x>", "x.xml")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a", "b", "x.xml"+Ext)
	if err := Save(path, d); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

// TestStoreUnreadableSnapshotIsHardError: a snapshot path that exists
// but cannot be loaded must error out, not silently fall back to the
// XML next to it (which could mask corruption with stale data).
func TestStoreUnreadableSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "d.xml"), "<fromxml/>")
	// A directory where the snapshot file should be: os.Stat succeeds,
	// loading fails.
	if err := os.Mkdir(filepath.Join(dir, "d.xml"+Ext), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.Session()
	defer sess.Close()
	_, err = sess.Resolve("d.xml")
	if err == nil {
		t.Fatal("unreadable snapshot fell back to XML")
	}
	if xdm.IsNotFound(err) {
		t.Fatalf("want hard error, got not-found: %v", err)
	}
}

// TestMmapMappingReuse: reloading the same snapshot file must reuse the
// retained mapping rather than accumulating one mapping per load.
func TestMmapMappingReuse(t *testing.T) {
	if !MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	d, err := xmldoc.ParseString("<m><n/></m>", "m.xml")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.xml"+Ext)
	if err := Save(path, d); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		mapMu.Lock()
		defer mapMu.Unlock()
		n := 0
		abs, _ := filepath.Abs(path)
		for k := range mappings {
			if k.Path == abs {
				n++
			}
		}
		return n
	}
	for i := 0; i < 3; i++ {
		if _, err := LoadMmap(path); err != nil {
			t.Fatal(err)
		}
	}
	if got := count(); got != 1 {
		t.Fatalf("%d mappings for one file after 3 loads, want 1", got)
	}
	// A rewritten snapshot (same path, new content) must get a fresh
	// mapping, not serve stale bytes.
	d2, err := xmldoc.ParseString("<m2><n2/><n3/></m2>", "m.xml")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // ensure mtime advances
	if err := Save(path, d2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if xmldoc.Serialize(got.Root()) != "<m2><n2/><n3/></m2>" {
		t.Fatalf("stale mapping served after rewrite: %s", xmldoc.Serialize(got.Root()))
	}
}

// TestStaleSnapshotInvalidated is the stale-document regression test: a
// snapshot is resident in the cache, the file on disk is replaced, and
// the next query must see the new content (plus an Invalidations counter
// increment and a generation bump), not the cached stale document.
func TestStaleSnapshotInvalidated(t *testing.T) {
	modes := []struct {
		name string
		mmap bool
	}{{"read", false}}
	if MmapSupported() {
		modes = append(modes, struct {
			name string
			mmap bool
		}{"mmap", true})
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			d1, err := xmldoc.ParseString("<v1><a/></v1>", "d.xml")
			if err != nil {
				t.Fatal(err)
			}
			if err := Save(filepath.Join(dir, "d.xml"+Ext), d1); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Options{Dir: dir, Mmap: m.mmap})
			if err != nil {
				t.Fatal(err)
			}
			resolve := func() string {
				t.Helper()
				sess := s.Session()
				defer sess.Close()
				doc, err := sess.Resolve("d.xml")
				if err != nil {
					t.Fatal(err)
				}
				return xmldoc.Serialize(doc.Root())
			}
			if got := resolve(); got != "<v1><a/></v1>" {
				t.Fatalf("first query: %s", got)
			}
			if got := resolve(); got != "<v1><a/></v1>" {
				t.Fatalf("repeat query: %s", got)
			}
			before := s.Cache().Stats()
			if before.Invalidations != 0 {
				t.Fatalf("invalidations before rewrite: %+v", before)
			}

			// Replace the snapshot on disk.
			d2, err := xmldoc.ParseString("<v2><b/><c/></v2>", "d.xml")
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) // ensure mtime advances
			if err := Save(filepath.Join(dir, "d.xml"+Ext), d2); err != nil {
				t.Fatal(err)
			}

			if got := resolve(); got != "<v2><b/><c/></v2>" {
				t.Fatalf("query after rewrite served stale content: %s", got)
			}
			after := s.Cache().Stats()
			if after.Invalidations != before.Invalidations+1 {
				t.Fatalf("invalidations = %d, want %d", after.Invalidations, before.Invalidations+1)
			}
			if after.Generation <= before.Generation {
				t.Fatalf("generation did not advance: %d -> %d", before.Generation, after.Generation)
			}
		})
	}
}

// TestStaleXMLFallbackInvalidated: same contract for documents served via
// the XML parse fallback (no snapshot on disk).
func TestStaleXMLFallbackInvalidated(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "p.xml"), "<old/>")
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func() string {
		t.Helper()
		sess := s.Session()
		defer sess.Close()
		doc, err := sess.Resolve("p.xml")
		if err != nil {
			t.Fatal(err)
		}
		return xmldoc.Serialize(doc.Root())
	}
	if got := resolve(); got != "<old/>" {
		t.Fatalf("first query: %s", got)
	}
	time.Sleep(10 * time.Millisecond)
	writeFile(t, filepath.Join(dir, "p.xml"), "<new><x/></new>")
	if got := resolve(); got != "<new><x/></new>" {
		t.Fatalf("query after rewrite served stale content: %s", got)
	}
	if s.Cache().Stats().Invalidations != 1 {
		t.Fatalf("stats %+v, want 1 invalidation", s.Cache().Stats())
	}
}

// TestCacheValidateAndGeneration drives Validate and the generation
// counter directly through a controllable Stat callback.
func TestCacheValidateAndGeneration(t *testing.T) {
	var calls int64
	var fpVal atomic.Int64
	c := NewCache(CacheOptions{
		Loader: countingLoader(&calls),
		Stat: func(uri string) (Fingerprint, error) {
			return Fingerprint{Path: uri, Size: fpVal.Load(), MTime: 1}, nil
		},
	})
	fpVal.Store(1)
	p, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	if c.Validate("a") {
		t.Fatal("fresh entry reported stale")
	}
	if c.Validate("absent") {
		t.Fatal("absent URI reported stale")
	}
	gen0 := c.Generation()
	fpVal.Store(2) // file "changed"
	if !c.Validate("a") {
		t.Fatal("stale entry not invalidated by Validate")
	}
	if c.Contains("a") {
		t.Fatal("stale entry still resident")
	}
	if got := c.Generation(); got != gen0+1 {
		t.Fatalf("generation = %d, want %d", got, gen0+1)
	}
	if s := c.Stats(); s.Invalidations != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Acquire reloads and the hit path revalidates: flip the fingerprint
	// again and the next Acquire must reload rather than serve the entry.
	if _, err := c.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	fpVal.Store(3)
	if _, err := c.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("loader calls = %d, want 3 (initial + Validate reload + stale-hit reload)", calls)
	}
	if s := c.Stats(); s.Invalidations != 2 {
		t.Fatalf("stats %+v, want 2 invalidations", s)
	}
}

// TestCacheStaleWhilePinned: invalidating a pinned entry must not yank
// the document out from under the pin holder (stable node identity), but
// new Acquires must get the fresh content, and the pinned accounting must
// come back to zero when everything releases.
func TestCacheStaleWhilePinned(t *testing.T) {
	var calls int64
	stale := false
	var mu sync.Mutex
	c := NewCache(CacheOptions{
		Loader: countingLoader(&calls),
		Stat: func(uri string) (Fingerprint, error) {
			mu.Lock()
			defer mu.Unlock()
			if stale {
				return Fingerprint{Path: uri, Size: 2, MTime: 1}, nil
			}
			return Fingerprint{Path: uri, Size: 1, MTime: 1}, nil
		},
	})
	pOld, err := c.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	oldDoc := pOld.Doc()
	mu.Lock()
	stale = true
	mu.Unlock()
	pNew, err := c.Acquire("a") // stale hit while pinned → detach + reload
	if err != nil {
		t.Fatal(err)
	}
	if pNew.Doc() == oldDoc {
		t.Fatal("stale pinned document served to a new acquirer")
	}
	if pOld.Doc() != oldDoc {
		t.Fatal("pin lost its document identity on invalidation")
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Docs != 1 || s.Pinned != 1 {
		t.Fatalf("stats %+v, want 1 invalidation, 1 doc, 1 pinned", s)
	}
	pOld.Release() // detached entry: must not disturb cache accounting
	if s := c.Stats(); s.Pinned != 1 || s.Docs != 1 {
		t.Fatalf("after releasing detached pin: %+v", s)
	}
	pNew.Release()
	if s := c.Stats(); s.Pinned != 0 || s.Docs != 1 {
		t.Fatalf("after releasing all pins: %+v", s)
	}
	if calls != 2 {
		t.Fatalf("loader calls = %d, want 2", calls)
	}
}

// TestCacheFlightWaiterReloadLoop deterministically drives a flight
// waiter through the Acquire retry loop: the waiter parks on the winner's
// in-flight load, and by the time it retries, the winner's entry has
// already been evicted under pressure — so the waiter must loop around
// and reload rather than fail or serve nothing.
func TestCacheFlightWaiterReloadLoop(t *testing.T) {
	var calls int64
	gate := make(chan struct{}, 3) // one token per permitted loader call
	loader := func(uri string) (*xdm.Document, error) {
		<-gate
		atomic.AddInt64(&calls, 1)
		return xmldoc.ParseString(fmt.Sprintf("<doc name=%q/>", uri), uri)
	}
	c := NewCache(CacheOptions{Loader: loader, MaxDocs: 1})
	retryEntered := make(chan struct{})
	retryGate := make(chan struct{})
	c.onFlightRetry = func() {
		retryEntered <- struct{}{}
		<-retryGate
	}

	waitUntil := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A wins the flight for "a" and parks inside the loader.
	aPin := make(chan *Pin, 1)
	go func() {
		p, err := c.Acquire("a")
		if err != nil {
			t.Error(err)
			aPin <- nil
			return
		}
		aPin <- p
	}()
	waitUntil("A's flight", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.flights["a"]
		return ok
	})

	// B parks on A's flight.
	bDone := make(chan *xdm.Document, 1)
	go func() {
		p, err := c.Acquire("a")
		if err != nil {
			t.Error(err)
			bDone <- nil
			return
		}
		doc := p.Doc()
		p.Release()
		bDone <- doc
	}()
	waitUntil("B parked on the flight", func() bool { return c.flightWaitCount() == 1 })

	// Let A's load finish; B wakes and blocks in the retry hook.
	gate <- struct{}{}
	p := <-aPin
	if p == nil {
		t.FailNow()
	}
	<-retryEntered

	// While B is stalled on its retry path, A's entry becomes evictable
	// and "b" pushes it out (MaxDocs=1).
	p.Release()
	gate <- struct{}{}
	pb, err := c.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	if c.Contains("a") {
		t.Fatal("setup failed: winner's entry still resident")
	}

	// B retries, finds the entry gone, and must reload it.
	gate <- struct{}{}
	close(retryGate)
	doc := <-bDone
	if doc == nil {
		t.FailNow()
	}
	if got := atomic.LoadInt64(&calls); got != 3 {
		t.Fatalf("loader calls = %d, want 3 (A's load, b's load, B's reload)", got)
	}
	if got := c.flightWaitCount(); got != 1 {
		t.Fatalf("flight waits = %d, want 1", got)
	}
}
