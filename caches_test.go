package ifpxq

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/xdm"
)

// TestPlanCacheReusesParsedAndCompiled: a repeat query through the plan
// cache returns the same parsed Query, compiles once, and the compile/
// optimize phases vanish from an Analyze report on the cached run.
func TestPlanCacheReusesParsedAndCompiled(t *testing.T) {
	pc := NewPlanCache(16)
	qa, err := pc.Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := pc.Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	if qa != qb {
		t.Fatal("repeat parse returned a different Query")
	}
	if s := pc.ParseStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("parse stats %+v", s)
	}

	opts := Options{Engine: EngineRelational, Docs: docs(), PlanCache: pc}
	res1, err := qa.Eval(opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := qa.Eval(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.String() != res2.String() {
		t.Fatalf("cached plan changes the result: %q vs %q", res1.String(), res2.String())
	}
	if s := pc.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("plan stats %+v", s)
	}

	// Different compile options compile separate plans.
	if _, err := qa.Eval(Options{Engine: EngineRelational, Docs: docs(), PlanCache: pc, Opt: Opt0}); err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Entries != 2 {
		t.Fatalf("plan stats after -O0 %+v", s)
	}

	// Analyze on a warm cache: no compile or optimize phase recorded.
	rep, err := qa.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Phases {
		if p.Name == "compile" || p.Name == "optimize" {
			t.Fatalf("phase %q present on a plan-cache hit", p.Name)
		}
	}
	if rep.Plan == "" {
		t.Fatal("analyze lost the plan rendering on a cache hit")
	}
}

// TestResultCacheServesRepeatQueries: the second evaluation hits, the
// outcome is byte-identical, and both engines key separately.
func TestResultCacheServesRepeatQueries(t *testing.T) {
	rc := NewResultCache(16, nil)
	q := MustParse(q1)
	for _, engine := range []Engine{EngineRelational, EngineInterpreter} {
		opts := Options{Engine: engine, Docs: docs(), ResultCache: rc}
		res1, err := q.Eval(opts)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := q.Eval(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res1.String() != res2.String() {
			t.Fatalf("engine %d: cached result differs: %q vs %q", engine, res1.String(), res2.String())
		}
		if len(res2.Fixpoints) != len(res1.Fixpoints) {
			t.Fatalf("engine %d: cached fixpoint stats differ", engine)
		}
	}
	s := rc.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("result stats %+v", s)
	}
}

// TestResultCacheNeverCachesTruncations: budget-truncated outcomes must
// not enter the cache, and the truncation error must repeat on re-run.
func TestResultCacheNeverCachesTruncations(t *testing.T) {
	rc := NewResultCache(16, nil)
	q := MustParse(`with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c1"]
recurse $x/id(./prerequisites/pre_code)`)
	opts := Options{Engine: EngineRelational, Docs: docs(), ResultCache: rc, MaxRounds: 1}
	for i := 0; i < 2; i++ {
		_, err := q.Eval(opts)
		if err == nil || !xdm.IsBudget(err) {
			t.Fatalf("run %d: want budget truncation, got %v", i, err)
		}
	}
	if s := rc.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("truncation entered the cache: %+v", s)
	}
}

// TestResultCacheContextItemBypass: evaluations with a bound context
// item never touch the cache.
func TestResultCacheContextItemBypass(t *testing.T) {
	rc := NewResultCache(16, nil)
	d, err := ParseDocument("<r><a/><a/></r>", "ctx.xml")
	if err != nil {
		t.Fatal(err)
	}
	item := nodeItem(d)
	q, err := ParseRegularXPath(`child::r`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := q.Eval(Options{ContextItem: &item, ResultCache: rc})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != 1 {
			t.Fatalf("count %d", res.Count())
		}
	}
	if s := rc.Stats(); s.Hits+s.Misses+int64(s.Entries) != 0 {
		t.Fatalf("context-item evaluation touched the cache: %+v", s)
	}
}

// TestResultCacheInvalidatedByStoreRewrite is the end-to-end staleness
// contract across both caches: result cached against a store-backed
// document, file replaced on disk, next evaluation recomputes fresh
// results (and the flush is visible in the invalidation counters).
func TestResultCacheInvalidatedByStoreRewrite(t *testing.T) {
	dir := t.TempDir()
	d1, err := ParseDocument("<r><a/></r>", "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(filepath.Join(dir, "d.xml.xqs"), d1); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc := NewResultCache(16, st)
	pc := NewPlanCache(16)
	q := MustParse(`count(doc("d.xml")//a)`)
	opts := Options{Engine: EngineRelational, Store: st, PlanCache: pc, ResultCache: rc}

	eval := func() string {
		t.Helper()
		res, err := q.Eval(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	if got := eval(); got != "1" {
		t.Fatalf("first eval: %s", got)
	}
	if got := eval(); got != "1" {
		t.Fatalf("cached eval: %s", got)
	}
	if s := rc.Stats(); s.Hits != 1 {
		t.Fatalf("expected a result-cache hit first: %+v", s)
	}

	d2, err := ParseDocument("<r><a/><a/><a/></r>", "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // ensure mtime advances
	if err := SaveSnapshot(filepath.Join(dir, "d.xml.xqs"), d2); err != nil {
		t.Fatal(err)
	}

	if got := eval(); got != "3" {
		t.Fatalf("eval after rewrite served stale result: %s", got)
	}
	if s := rc.Stats(); s.Invalidations == 0 {
		t.Fatalf("no result-cache invalidations recorded: %+v", s)
	}
	if s := st.Cache().Stats(); s.Invalidations == 0 {
		t.Fatalf("no store invalidations recorded: %+v", s)
	}
	// And the fresh result is itself cached again.
	if got := eval(); got != "3" {
		t.Fatalf("recached eval: %s", got)
	}
}

// TestResultCacheRendersOnce: a cached entry is serialized once. The
// miss and its hits render what an uncached evaluation renders, the hits
// read one backing string, concurrent first renderings agree, and after
// a store rewrite the next result renders the new items, not the old text.
func TestResultCacheRendersOnce(t *testing.T) {
	dir := t.TempDir()
	save := func(xml string) {
		t.Helper()
		d, err := ParseDocument(xml, "d.xml")
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveSnapshot(filepath.Join(dir, "d.xml.xqs"), d); err != nil {
			t.Fatal(err)
		}
	}
	save(`<r><a x="1"/><b/></r>`)
	st, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc := NewResultCache(16, st)
	q := MustParse(`doc("d.xml")//a`)
	eval := func(opts Options) *Result {
		t.Helper()
		res, err := q.Eval(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	uncached := func(engine Engine) string {
		t.Helper()
		return eval(Options{Engine: engine, Store: st}).String()
	}

	rel := Options{Engine: EngineRelational, Store: st, ResultCache: rc}
	want := uncached(EngineRelational)
	if want != `<a x="1"/>` {
		t.Fatalf("uncached eval: %q", want)
	}
	miss, hit1, hit2 := eval(rel), eval(rel), eval(rel)
	for i, res := range []*Result{miss, hit1, hit2} {
		if got := res.String(); got != want {
			t.Fatalf("evaluation %d renders %q, want %q", i, got, want)
		}
	}
	if s := rc.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("result stats %+v", s)
	}
	if unsafe.StringData(hit1.String()) != unsafe.StringData(hit2.String()) ||
		unsafe.StringData(miss.String()) != unsafe.StringData(hit1.String()) {
		t.Fatal("a hit re-serialized its cached entry")
	}

	// An entry nobody has rendered yet, rendered by eight hits at once.
	interp := Options{Engine: EngineInterpreter, Store: st, ResultCache: rc}
	eval(interp)
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := q.Eval(interp)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res.String()
		}()
	}
	wg.Wait()
	if s := rc.Stats(); s.Hits != 10 || s.Misses != 2 {
		t.Fatalf("result stats after concurrent hits %+v", s)
	}
	for i, g := range got {
		if g != want || unsafe.StringData(g) != unsafe.StringData(got[0]) {
			t.Fatalf("concurrent hit %d renders %q at %p, want %q at %p",
				i, g, unsafe.StringData(g), want, unsafe.StringData(got[0]))
		}
	}

	time.Sleep(10 * time.Millisecond) // ensure mtime advances
	save(`<r><a x="2"/><a x="3"/></r>`)
	want = `<a x="2"/><a x="3"/>`
	if got := eval(rel).String(); got != want {
		t.Fatalf("eval after rewrite renders %q, want %q", got, want)
	}
	if got := eval(rel).String(); got != want {
		t.Fatalf("hit after rewrite renders %q, want %q", got, want)
	}
	if got := uncached(EngineRelational); got != want {
		t.Fatalf("uncached eval after rewrite: %q", got)
	}
}

// TestPlanCacheKeySeparatesRegularXPath: an XQuery and a Regular XPath
// query with identical source text must not collide in the plan or
// result cache, which both key on the query key.
func TestPlanCacheKeySeparatesRegularXPath(t *testing.T) {
	// Same source string, two languages.
	src := `child::a`
	xq, err := Parse(src)
	if err != nil {
		// XQuery may legitimately reject it; the key test below still
		// matters for sources both languages accept.
		t.Skipf("XQuery rejects %q: %v", src, err)
	}
	rx, err := ParseRegularXPath(src)
	if err != nil {
		t.Fatal(err)
	}
	if xq.key(&Options{}) == rx.key(&Options{}) {
		t.Fatal("query keys collide across query languages")
	}
}

// cached is a distinct cacheable result per value.
func cached(v string) *Result { return &Result{Items: xdm.Sequence{xdm.NewString(v)}} }

// rk is a result key for the query text src under default options.
func rk(src string) resultKey { return resultKey{queryKey: queryKey{src: src}} }

// resident reports whether src's key is in the result cache, leaving its
// recency and the counters alone.
func (rc *ResultCache) resident(src string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	_, ok := rc.list.Lookup(rk(src))
	return ok
}

// TestPlanCacheLRU: a hit promotes, the least recent entry goes at the
// bound, a re-put replaces in place, and the counters say so.
func TestPlanCacheLRU(t *testing.T) {
	pc := NewPlanCache(2)
	parse := func(src string) *Query {
		t.Helper()
		q, err := pc.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a, _ := parse("1"), parse("2")
	if parse("1") != a {
		t.Fatal("a: repeat parse missed")
	}
	parse("3") // evicts 2 (least recent after 1's promotion)
	if s := pc.ParseStats(); s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 || s.Entries != 2 || s.MaxEntries != 2 {
		t.Fatalf("stats %+v", s)
	}
	if parse("1") != a {
		t.Fatal("1 evicted out of order")
	}
	parse("2") // a miss again: evicts 3
	if s := pc.ParseStats(); s.Hits != 2 || s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("stats after reload %+v", s)
	}
	b := MustParse("1")
	pc.parsed.put("1", b) // replace in place: no eviction
	if parse("1") != b {
		t.Fatal("replace did not take")
	}
	if s := pc.ParseStats(); s.Evictions != 2 || s.Entries != 2 {
		t.Fatalf("stats after replace %+v", s)
	}
	if s := pc.Stats(); s != (CacheStats{MaxEntries: 2}) {
		t.Fatalf("plan half touched by parses: %+v", s)
	}
}

func TestNilCachesAreDisabled(t *testing.T) {
	var pc *PlanCache
	q, err := pc.Parse("1 + 1")
	if err != nil || q == nil {
		t.Fatalf("nil plan cache parse: %v %v", q, err)
	}
	if s, p := pc.Stats(), pc.ParseStats(); s != (CacheStats{}) || p != (CacheStats{}) {
		t.Fatalf("nil stats %+v %+v", s, p)
	}
	var rc *ResultCache
	rc.put(rk("k"), 0, cached("v"), nil)
	if _, ok := rc.get(rk("k")); ok {
		t.Fatal("nil result cache hit")
	}
	if rc.generation() != 0 {
		t.Fatal("nil generation")
	}
	if s := rc.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil stats %+v", s)
	}
	res, err := q.Eval(Options{PlanCache: pc, ResultCache: rc})
	if err != nil || res.String() != "2" {
		t.Fatalf("eval with nil caches: %v %v", res, err)
	}
}

func TestResultCacheGenerationInvalidation(t *testing.T) {
	rc := NewResultCache(8, nil)
	rc.put(rk("q1"), 0, cached("r1"), nil)
	rc.put(rk("q2"), 0, cached("r2"), nil)
	if res, ok := rc.getAt(rk("q1"), 0); !ok || res.String() != "r1" {
		t.Fatalf("q1: %v %v", res, ok)
	}
	// Generation moves: everything flushes wholesale.
	if res, ok := rc.getAt(rk("q1"), 1); ok {
		t.Fatalf("stale hit across generations: %v", res)
	}
	if rc.resident("q2") {
		t.Fatal("q2 survived the generation flush")
	}
	s := rc.Stats()
	if s.Invalidations != 2 || s.Hits != 1 || s.Misses != 1 || s.Entries != 0 {
		t.Fatalf("stats %+v", s)
	}
	if rc.gen != 1 {
		t.Fatalf("generation %d", rc.gen)
	}
}

func TestResultCachePutGenerationRules(t *testing.T) {
	rc := NewResultCache(8, nil)
	rc.getAt(rk("none"), 5)                    // the resident generation becomes 5
	rc.put(rk("old"), 4, cached("stale"), nil) // older than resident generation: dropped
	if rc.resident("old") {
		t.Fatal("stale-generation insert accepted")
	}
	rc.put(rk("cur"), 5, cached("fresh"), nil)
	if res, ok := rc.getAt(rk("cur"), 5); !ok || res.String() != "fresh" {
		t.Fatalf("cur: %v %v", res, ok)
	}
	rc.put(rk("next"), 6, cached("newer"), nil) // newer: flushes the gen-5 residents first
	if rc.resident("cur") {
		t.Fatal("older resident survived a newer insert")
	}
	if res, ok := rc.getAt(rk("next"), 6); !ok || res.String() != "newer" {
		t.Fatalf("next: %v %v", res, ok)
	}
	if got := rc.Stats().Invalidations; got != 1 {
		t.Fatalf("invalidations %d, want 1", got)
	}
}

func TestResultCacheBounded(t *testing.T) {
	rc := NewResultCache(2, nil)
	for i := 0; i < 4; i++ {
		rc.put(rk(fmt.Sprintf("k%d", i)), 0, cached(fmt.Sprint(i)), nil)
	}
	s := rc.Stats()
	if s.Entries != 2 || s.Evictions != 2 || s.MaxEntries != 2 {
		t.Fatalf("stats %+v", s)
	}
	if !rc.resident("k3") || !rc.resident("k2") || rc.resident("k1") {
		t.Fatal("bound kept the wrong entries")
	}
}

// TestCachesConcurrent hammers both caches from several goroutines; run
// under -race it checks their locking.
func TestCachesConcurrent(t *testing.T) {
	pc := NewPlanCache(16)
	rc := NewResultCache(16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("%d", i%24)
				if _, err := pc.Parse(k); err != nil {
					t.Error(err)
					return
				}
				rc.put(rk(k), int64(i%3), cached(k), nil)
				if res, ok := rc.getAt(rk(k), int64(i%3)); ok && res.String() != k {
					t.Errorf("key %s served %q", k, res.String())
					return
				}
				pc.Stats()
				rc.Stats()
			}
		}()
	}
	wg.Wait()
}
