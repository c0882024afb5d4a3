package store

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/xdm"
)

// Loader loads a document on a cache miss.
type Loader func(uri string) (*xdm.Document, error)

// Fingerprint identifies the backing file bytes a cached document was
// loaded from. Two fingerprints compare equal iff path, size, and mtime
// all match — the same identity rule the mmap layer uses for mapping
// reuse, so the cache and the mapping table agree about what "the same
// document" means. The zero Fingerprint means "unknown" and is never
// validated.
type Fingerprint struct {
	Path  string
	Size  int64
	MTime int64 // modification time, nanoseconds since the Unix epoch
}

// CacheOptions configure a Cache.
type CacheOptions struct {
	// Loader is called on misses (required).
	Loader Loader
	// Stat fingerprints the backing file for uri without loading it.
	// When set, every cache hit revalidates the entry's recorded
	// fingerprint; a mismatch (the file was replaced on disk) or a stat
	// failure (it was removed) invalidates the entry, bumps the cache
	// generation, and reloads. Nil disables validation: entries live
	// until evicted, exactly the pre-generation behaviour.
	Stat func(uri string) (Fingerprint, error)
	// MaxBytes bounds the summed node-table bytes of resident documents
	// (Document.Stats().ArenaBytes: node columns, value blob, names and
	// IDs; a snapshot's index sections are not counted); 0 means
	// unbounded.
	MaxBytes int64
	// MaxDocs bounds the number of cached documents; 0 means unbounded.
	MaxDocs int
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Errors        int64 `json:"errors"`        // loader failures (not cached)
	Evictions     int64 `json:"evictions"`     // documents dropped by LRU pressure
	Invalidations int64 `json:"invalidations"` // stale documents dropped by fingerprint validation
	Generation    int64 `json:"generation"`    // monotonic store generation (see Generation)
	Loads         int64 `json:"loads"`         // loader calls (misses + failures)
	LoadNs        int64 `json:"load_ns"`       // cumulative wall time inside the loader
	Docs          int   `json:"docs"`          // resident documents
	Pinned        int   `json:"pinned"`        // documents currently pinned by sessions
	Bytes         int64 `json:"bytes"`         // resident arena bytes
	MaxBytes      int64 `json:"max_bytes"`
	MaxDocs       int   `json:"max_docs"`
}

// Cache is a concurrency-safe bounded document cache: LRU eviction over
// byte and document-count budgets, pinning so documents stay resident
// (and keep stable node identity) while queries hold them, and
// singleflight loading so a stampede on one URI parses it once.
//
// Pinned documents are never evicted; when every resident document is
// pinned the cache overshoots its budget rather than failing queries,
// and sheds the excess as pins are released.
type Cache struct {
	mu      sync.Mutex
	opts    CacheOptions
	docs    lru.List[string, *entry] // resident documents by URI
	flights map[string]*flight
	bytes   int64
	// pinned counts resident entries with pins > 0, maintained
	// incrementally on pin transitions so Stats never scans the map.
	pinned int
	// gen is the monotonic store generation: any event that removes a
	// resident document (fingerprint invalidation, LRU eviction, purge)
	// bumps it, so "generation unchanged" certifies the resident set only
	// shrank by nothing — the invariant the result cache keys on.
	gen           int64
	invalidations int64

	hits, misses, errors, evictions int64
	loads, loadNs                   int64

	// Test seams (cache_test.go): flightWaits counts Acquires that parked
	// on another goroutine's in-flight load; onFlightRetry, when set, runs
	// on a waiter's retry path right after the winner's flight completes,
	// before the waiter re-enters the lookup loop.
	flightWaits   int64
	onFlightRetry func()
}

type entry struct {
	doc   *xdm.Document
	bytes int64
	fp    Fingerprint
	pins  int
	// detached marks an entry invalidated while pinned: it left the
	// resident set (recency list, byte/pinned accounting) but live Pins
	// still reference its document; Release skips cache bookkeeping.
	detached bool
}

type flight struct {
	done chan struct{}
	doc  *xdm.Document
	err  error
}

// NewCache builds a cache. It panics if opts.Loader is nil.
func NewCache(opts CacheOptions) *Cache {
	if opts.Loader == nil {
		panic("store: NewCache requires a Loader")
	}
	return &Cache{opts: opts, flights: make(map[string]*flight)}
}

// Pin is a pinned reference to a cached document. Release it when the
// query holding it completes; Sessions do this in bulk.
type Pin struct {
	c        *Cache
	e        *entry
	released bool
}

// Doc returns the pinned document.
func (p *Pin) Doc() *xdm.Document { return p.e.doc }

// Release drops the pin (idempotent). Once a document's pin count falls
// to zero it becomes evictable; excess bytes retained while it was
// pinned are shed immediately.
func (p *Pin) Release() {
	if p.released {
		return
	}
	p.released = true
	c := p.c
	c.mu.Lock()
	p.e.pins--
	if p.e.pins == 0 && !p.e.detached {
		c.pinned--
		c.evictLocked()
	}
	c.mu.Unlock()
}

// Acquire returns a pinned reference to the document for uri, loading it
// through the cache's Loader on a miss. Concurrent Acquires of the same
// absent URI share one loader call. When the cache has a Stat callback,
// a hit revalidates the entry's fingerprint against the backing file and
// a stale entry is invalidated and reloaded instead of served.
func (c *Cache) Acquire(uri string) (*Pin, error) {
	for {
		c.mu.Lock()
		if e, ok := c.docs.Lookup(uri); ok {
			if c.opts.Stat != nil && e.fp != (Fingerprint{}) {
				// Stat outside the lock — a syscall under c.mu would
				// serialize every hit against /metrics scrapes and other
				// queries. Relock and make sure this exact entry is still
				// resident before trusting the comparison.
				fpCached := e.fp
				c.mu.Unlock()
				fpNow, statErr := c.opts.Stat(uri)
				c.mu.Lock()
				if cur, ok := c.docs.Lookup(uri); !ok || cur != e {
					c.mu.Unlock()
					continue // resident set changed underneath the stat; retry
				}
				if statErr != nil || fpNow != fpCached {
					// The backing file was replaced or removed: drop the
					// stale entry and fall through to a fresh load (which
					// surfaces the error if the file is truly gone).
					c.invalidateLocked(uri)
					c.mu.Unlock()
					continue
				}
			}
			c.hits++
			e.pins++
			if e.pins == 1 {
				c.pinned++
			}
			c.docs.Touch(uri)
			c.mu.Unlock()
			return &Pin{c: c, e: e}, nil
		}
		if fl, ok := c.flights[uri]; ok {
			c.flightWaits++
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			if c.onFlightRetry != nil {
				c.onFlightRetry()
			}
			// The winner inserted the entry; re-acquire it (it may
			// already have been evicted again under pressure, in which
			// case we loop around and reload).
			continue
		}
		fl := &flight{done: make(chan struct{})}
		c.flights[uri] = fl
		c.mu.Unlock()

		fp, doc, bytes, loadNs, err := c.load(uri)

		c.mu.Lock()
		c.loads++
		c.loadNs += loadNs
		delete(c.flights, uri)
		fl.doc, fl.err = doc, err
		close(fl.done)
		if err != nil {
			c.errors++
			c.mu.Unlock()
			return nil, err
		}
		c.misses++
		e := &entry{doc: doc, bytes: bytes, fp: fp, pins: 1}
		c.docs.Put(uri, e)
		c.pinned++
		c.bytes += bytes
		c.evictLocked()
		c.mu.Unlock()
		return &Pin{c: c, e: e}, nil
	}
}

// load fingerprints and loads uri for Acquire's flight. A panic in the
// Stat callback or the Loader is returned as an error, so the flight
// always completes: otherwise its done channel would never close and
// every later Acquire of uri would wait on it forever.
func (c *Cache) load(uri string) (fp Fingerprint, doc *xdm.Document, bytes, loadNs int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			doc, err = nil, fmt.Errorf("store: loading %s panicked: %v", uri, r)
		}
	}()
	// Fingerprint before reading: if the file is replaced mid-load we
	// record the pre-replacement identity and the next hit invalidates
	// — an extra reload, never a stale serve.
	if c.opts.Stat != nil {
		if f, statErr := c.opts.Stat(uri); statErr == nil {
			fp = f
		}
	}
	loadStart := time.Now()
	doc, err = c.opts.Loader(uri)
	loadNs = time.Since(loadStart).Nanoseconds()
	if err == nil {
		bytes = doc.Stats().ArenaBytes
	}
	return fp, doc, bytes, loadNs, err
}

// invalidateLocked removes uri's stale entry from the resident set,
// bumping the generation and the invalidation counter. A pinned entry is
// detached rather than destroyed: live Pins keep its document (and node
// identity) alive, but the cache stops serving or accounting for it.
func (c *Cache) invalidateLocked(uri string) {
	e, _ := c.docs.Remove(uri)
	c.bytes -= e.bytes
	if e.pins > 0 {
		e.detached = true
		c.pinned--
	}
	c.invalidations++
	c.gen++
}

// Validate re-checks the resident document for uri against its backing
// file and invalidates it (bumping the generation) if stale or gone. It
// reports whether an entry was invalidated. Absent entries, caches with
// no Stat callback, and entries with unknown fingerprints are left alone.
func (c *Cache) Validate(uri string) bool {
	if c.opts.Stat == nil {
		return false
	}
	c.mu.Lock()
	e, ok := c.docs.Lookup(uri)
	if !ok || e.fp == (Fingerprint{}) {
		c.mu.Unlock()
		return false
	}
	fpCached := e.fp
	c.mu.Unlock()
	fpNow, statErr := c.opts.Stat(uri)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.docs.Lookup(uri); !ok || cur != e {
		return false
	}
	if statErr == nil && fpNow == fpCached {
		return false
	}
	c.invalidateLocked(uri)
	return true
}

// Generation returns the cache's monotonic store generation. It advances
// whenever a resident document leaves the cache for any reason —
// fingerprint invalidation, LRU eviction, purge — so a consumer that
// tagged derived state (a cached query result) with the generation can
// trust it exactly as long as the generation has not moved.
func (c *Cache) Generation() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// evictLocked drops least-recently-used unpinned documents until the
// cache is back under its budgets (or nothing evictable remains).
func (c *Cache) evictLocked() {
	c.shedLocked(func() bool {
		return (c.opts.MaxBytes > 0 && c.bytes > c.opts.MaxBytes) ||
			(c.opts.MaxDocs > 0 && c.docs.Len() > c.opts.MaxDocs)
	})
}

// Purge drops every unpinned resident document, counting them as
// evictions. Documents still pinned by live sessions stay resident until
// their pins release; graceful shutdown calls Purge after draining, so in
// practice everything goes.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shedLocked(func() bool { return true })
}

// shedLocked evicts unpinned documents, least recently used first, while
// more is true. Each eviction bumps the generation.
func (c *Cache) shedLocked(more func() bool) {
	for uri, e := range c.docs.Backward() {
		if !more() {
			return
		}
		if e.pins > 0 {
			continue
		}
		c.docs.Remove(uri)
		c.bytes -= e.bytes
		c.evictions++
		c.gen++
	}
}

// Contains reports whether uri is resident (no pin, no LRU touch).
func (c *Cache) Contains(uri string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.docs.Lookup(uri)
	return ok
}

// Stats snapshots the cache counters. O(1): the pinned count is
// maintained incrementally on pin transitions, so a /metrics scrape never
// walks the resident set while holding the mutex queries contend on.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Errors: c.errors, Evictions: c.evictions,
		Invalidations: c.invalidations, Generation: c.gen,
		Loads: c.loads, LoadNs: c.loadNs,
		Docs: c.docs.Len(), Pinned: c.pinned, Bytes: c.bytes,
		MaxBytes: c.opts.MaxBytes, MaxDocs: c.opts.MaxDocs,
	}
}

// flightWaitCount returns how many Acquires have parked on another
// goroutine's in-flight load (test seam).
func (c *Cache) flightWaitCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flightWaits
}

// DocInfo describes one resident document (monitoring endpoints).
type DocInfo struct {
	URI   string       `json:"uri"`
	Pins  int          `json:"pins"`
	Stats xdm.DocStats `json:"stats"`
	// Index reports the document's name/path index state: persistent for
	// v2 snapshots (decoded zero-copy at open), lazily built in memory for
	// XML-parsed documents and v1 snapshots, absent until something probes.
	Index xdm.IndexInfo `json:"index"`
}

// Docs lists resident documents in most-recently-used order.
func (c *Cache) Docs() []DocInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DocInfo, 0, c.docs.Len())
	for uri, e := range c.docs.All() {
		out = append(out, DocInfo{URI: uri, Pins: e.pins, Stats: e.doc.Stats(), Index: e.doc.IndexInfo()})
	}
	return out
}

// Session tracks the documents one query evaluation touches, holding one
// pin per distinct URI so they stay resident — with stable node identity —
// until Close. Safe for concurrent use.
type Session struct {
	c    *Cache
	mu   sync.Mutex
	pins map[string]*Pin
}

// Session opens a pin-tracking session on the cache.
func (c *Cache) Session() *Session {
	return &Session{c: c, pins: make(map[string]*Pin)}
}

// Resolve resolves a document URI through the cache, pinning it for the
// session's lifetime. It has the engines' DocResolver shape.
func (s *Session) Resolve(uri string) (*xdm.Document, error) {
	s.mu.Lock()
	if p, ok := s.pins[uri]; ok {
		s.mu.Unlock()
		return p.Doc(), nil
	}
	s.mu.Unlock()
	// Load outside the session lock: concurrent Resolves of distinct
	// URIs should overlap, and the cache does its own singleflight.
	p, err := s.c.Acquire(uri)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.pins[uri]; ok {
		// Another goroutine of this session won the race; keep its pin
		// so the session sees one document identity per URI.
		p.Release()
		return prev.Doc(), nil
	}
	s.pins[uri] = p
	return p.Doc(), nil
}

// Close releases every pin the session holds (idempotent).
func (s *Session) Close() {
	s.mu.Lock()
	pins := s.pins
	s.pins = make(map[string]*Pin)
	s.mu.Unlock()
	for _, p := range pins {
		p.Release()
	}
}
