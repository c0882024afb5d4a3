package ifpxq

import (
	"path/filepath"
	"testing"
	"time"

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

// TestPlanCacheKeySeparatesRegularXPath: an XQuery and a Regular XPath
// query with identical source text must not collide in the plan cache.
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
	if xq.planKey(0, false, true) == rx.planKey(0, false, true) {
		t.Fatal("plan keys collide across query languages")
	}
}
