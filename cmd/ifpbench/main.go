// Command ifpbench regenerates the paper's Table 2: Naïve vs. Delta
// evaluation times, allocations, nodes fed back, and recursion depths for
// the four query families on both engines (direct interpreter = the Saxon
// column, relational pipeline = the MonetDB/XQuery column). It measures
// what only this table needs — the Naïve oracle cells and the -O0 and ix=0
// oracle arms, with machine-independent counters; anything end to end
// (latency through xqd, caches, cold document opens) is measured by
// `go run -C benchmark .`.
//
// Usage:
//
//	ifpbench                   # all Table 2 rows at opt=1 ix=1
//	ifpbench -exp T2.1,T2.6    # a subset
//	ifpbench -list             # list experiments
//	ifpbench -markdown         # EXPERIMENTS.md-style table
//	ifpbench -json BENCH.json  # also write a snapshot (schema v2: stable
//	                           # cell id + p/opt/ix fields, ns/op,
//	                           # allocs/op, nodes fed, depth per cell) that
//	                           # benchdiff compares across PRs
//	ifpbench -vary opt=0,1     # verbatim vs optimized relational plans
//	                           # (interp has no plan: measured at opt=1 only)
//	ifpbench -vary ix=0,1      # arena scans vs name-index probes
//
// One axis per run, every other setting at its default. The arms of a run
// must agree on nodes fed, depth and result length per cell, or the run
// fails and writes nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		expID    = flag.String("exp", "", "comma-separated experiments to run (id or name; default all)")
		list     = flag.Bool("list", false, "list experiments")
		markdown = flag.Bool("markdown", false, "emit a markdown table")
		jsonPath = flag.String("json", "", "also write a machine-readable snapshot to this file")
		vary     bench.Vary
	)
	flag.Var(&vary, "vary", "measure every cell along one axis: `key=v1[,v2…]` with key opt (0|1) or ix (0|1)")
	flag.Parse()

	exps := bench.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-6s %s\n", e.ID, e.Name)
		}
		return
	}
	if *expID != "" {
		exps = nil
		for _, id := range strings.Split(*expID, ",") {
			e, ok := bench.ExperimentByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ifpbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	entries, err := bench.Run(exps, vary.Configs(), os.Stderr)
	if err == nil && *jsonPath != "" {
		err = bench.WriteFile(*jsonPath, bench.NewFile(entries))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
		os.Exit(1)
	}
	bench.WriteTable(os.Stdout, entries, *markdown)
}
