// Command benchdiff reads ifpbench -json snapshots (schema v2).
//
//	benchdiff BASE CUR
//	    gates regressions: exits non-zero when any cell present in both
//	    files, matched on (id, p, opt, ix), exceeds a tolerance below
//	benchdiff -trajectory T2.4/rel/Delta BENCH_*.json
//	    prints one cell at the default configuration across PRs, in PR order
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

// The gate's tolerances, relative to the baseline. allocs/op is
// deterministic and machine-independent, so it carries the tight gate.
// ns/op is measured on whatever runner CI hands out while the baseline came
// from another machine entirely, so it only catches catastrophic slowdowns;
// anything tighter would flake on runner variance rather than code. All
// cells gate: the interpreter cells are where the index-probe path shows,
// the relational cells where the fixpoint fabric does. Regenerate the
// baseline (`make bench-baseline`) whenever a PR moves the numbers on
// purpose.
const (
	allocsTolerance = 0.25 // fail above +25 %
	nsTolerance     = 1.0  // fail above 2×
)

func main() {
	trajectory := flag.String("trajectory", "", "print this cell `id` (e.g. T2.4/rel/Delta) across the snapshot files given")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff BASE CUR\n       benchdiff -trajectory ID BENCH_*.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *trajectory != "" {
		bench.WriteTrajectory(os.Stdout, os.Stderr, *trajectory, flag.Args())
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	baseline, err := bench.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}
	current, err := bench.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
		os.Exit(2)
	}
	diffs := bench.Diff(baseline, current, nsTolerance, allocsTolerance)
	if len(diffs) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no overlapping cells to compare")
		os.Exit(2)
	}
	if bench.WriteDiff(os.Stdout, diffs) {
		fmt.Fprintf(os.Stderr, "benchdiff: regression beyond tolerance (ns +%.0f%%, allocs +%.0f%%)\n",
			nsTolerance*100, allocsTolerance*100)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %d cells within tolerance\n", len(diffs))
}
