package difftest

import (
	"testing"

	"repro/internal/xdm"
)

// TestIndexParity is the index gate (`make parity-check`): over the
// deterministic seed block, both engines with index probing enabled (the
// production default) must agree byte-for-byte — results,
// errors, fixpoint statistics — with pure arena-scan execution in every
// engine × mode × optimizer level × worker count configuration. It also
// pins that the probe path actually ran somewhere in the block: a wiring
// regression that silently disabled probing would otherwise keep this
// green while the index went dead.
func TestIndexParity(t *testing.T) {
	probes0, _ := xdm.IndexCounters()
	for seed := int64(1); seed <= 32; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			CheckIndexes(t, Generate(seed))
		})
	}
	if probes, _ := xdm.IndexCounters(); probes == probes0 {
		t.Errorf("no index probes recorded across the seed block: the probe path is inert")
	}
}
