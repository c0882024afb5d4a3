package difftest

import (
	"fmt"
	"testing"

	ifpxq "repro"
)

// CheckIndexes proves the name-index probe path is invisible to results:
// every (engine, mode, optimizer level) configuration is
// evaluated with the index path disabled (pure arena scans) to establish a
// baseline, then with the index path enabled — the production default.
// Both runs must agree byte-for-byte on the result string, the error, and
// the fixpoint statistics. Both engines answer steps through the one
// kernel (xdm.Step), which decides walk-vs-probe per context node at run
// time — at -O0 as at -O1 — and the choice must be invisible everywhere.
func CheckIndexes(t testing.TB, c Case) {
	t.Helper()
	h := load(t, c)
	h.walk(func(k config, opts ifpxq.Options) {
		opts.NoIndex = true
		scan := h.eval(opts)
		opts.NoIndex = false
		sameOutcome(t, fmt.Sprintf("seed %d %v: indexed vs scan", c.Seed, k), scan, h.eval(opts))
	})
}
