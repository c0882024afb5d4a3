package difftest

import (
	"testing"
)

// TestCachingParity is the caching gate (`make parity-check`): over the
// deterministic seed block, serving from the plan cache, the result cache,
// or both must not change any engine's observable behaviour — results,
// errors, and fixpoint statistics stay byte-identical with caches on vs
// off in every configuration, and warm caches must actually serve hits.
func TestCachingParity(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			CheckCaching(t, Generate(seed))
		})
	}
}
