package difftest

import (
	"testing"
)

// TestTracingParity is the observability gate (`make parity-check`): over the
// deterministic seed block, attaching a span recorder must not change any
// engine's observable behaviour — results, errors, and fixpoint statistics
// stay byte-identical with tracing on vs off in every configuration.
func TestTracingParity(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			CheckTracing(t, Generate(seed))
		})
	}
}
