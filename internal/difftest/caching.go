package difftest

import (
	"fmt"
	"testing"

	ifpxq "repro"
)

// CheckCaching proves the caching layer is invisible to results: every
// (engine, mode, optimizer level, parallelism) configuration is evaluated
// uncached to establish a baseline, then re-evaluated under each cache
// configuration — plan cache only, result cache only, both — with the
// caches shared across the whole matrix and each configuration run twice,
// so the second run exercises the hit paths. Every cached run must agree
// byte-for-byte with the uncached baseline on the result string, the
// error, and the fixpoint statistics.
//
// It also checks the caches are not silently inert: whenever a cache
// configuration populated entries, the second pass must have recorded
// hits against them.
func CheckCaching(t testing.TB, c Case) {
	t.Helper()
	h := load(t, c)

	baseline := map[config]outcome{}
	h.walk(func(k config, opts ifpxq.Options) {
		baseline[k] = h.eval(opts)
	})

	for _, cc := range []struct {
		name         string
		plan, result bool
	}{
		{"plan", true, false},
		{"result", false, true},
		{"both", true, true},
	} {
		var pc *ifpxq.PlanCache
		var rc *ifpxq.ResultCache
		if cc.plan {
			pc = ifpxq.NewPlanCache(64)
		}
		if cc.result {
			rc = ifpxq.NewResultCache(64, nil)
		}
		// Two passes over the full matrix with the caches shared: the
		// first populates, the second must serve hits — and also proves
		// a result cached at one parallelism serves every other (results
		// are byte-identical at every worker count).
		for pass := 0; pass < 2; pass++ {
			h.walk(func(k config, opts ifpxq.Options) {
				opts.PlanCache, opts.ResultCache = pc, rc
				sameOutcome(t, fmt.Sprintf("seed %d %v: caches=%s pass=%d vs uncached", c.Seed, k, cc.name, pass),
					baseline[k], h.eval(opts))
			})
		}
		// A cache that populated entries in pass one must have hit in
		// pass two; zero entries is legitimate (compile rejections keep
		// plans out, errors and context-item runs keep results out).
		if s := pc.Stats(); s.Entries > 0 && s.Hits == 0 {
			t.Errorf("seed %d caches=%s: plan cache populated but never hit: %+v", c.Seed, cc.name, s)
		}
		if s := rc.Stats(); s.Entries > 0 && s.Hits == 0 {
			t.Errorf("seed %d caches=%s: result cache populated but never hit: %+v", c.Seed, cc.name, s)
		}
	}
}
