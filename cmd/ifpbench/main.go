// Command ifpbench regenerates the paper's Table 2: Naïve vs. Delta
// evaluation times, total nodes fed back, and recursion depths for the
// four query families on both engines (direct interpreter = the Saxon
// column, relational pipeline = the MonetDB/XQuery column).
//
// Usage:
//
//	ifpbench                 # all Table 2 rows
//	ifpbench -exp T2.5       # one row
//	ifpbench -exp T2.1,T2.6  # a subset (the CI bench gate runs one)
//	ifpbench -list           # list experiments
//	ifpbench -markdown       # EXPERIMENTS.md-style output
//	ifpbench -json BENCH.json  # machine-readable snapshot (ns/op,
//	                           # allocs/op, nodes-fed per cell) so the
//	                           # perf trajectory is diffable across PRs
//	ifpbench -store            # document store benchmarks: cold XML parse
//	                           # vs snapshot read vs mmap open, plus
//	                           # cold- vs warm-cache query latency
//	ifpbench -store -json BENCH_2.json
//	ifpbench -p 4              # run with a 4-worker fixpoint pool
//	ifpbench -O 0              # run the relational cells on verbatim plans
//	ifpbench -opt-sweep -json BENCH_5.json
//	                           # every cell at -O0 and -O1 (…/O=N entries):
//	                           # what the plan-rewrite layer buys
//	ifpbench -parallel 1,2,4,8 -json BENCH_3.json
//	                           # worker-count sweep over the fixpoint
//	                           # workloads: one entry per (cell, p), names
//	                           # suffixed /p=N, so speedups are diffable
//	ifpbench -cache-sweep -json BENCH_8.json
//	                           # every cell uncached vs through warm plan
//	                           # and result caches (…/cache=N entries):
//	                           # what the caching layer buys on repeats
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		expID      = flag.String("exp", "", "run a single experiment (id or name)")
		list       = flag.Bool("list", false, "list experiments")
		markdown   = flag.Bool("markdown", false, "emit a markdown table")
		jsonPath   = flag.String("json", "", "write a machine-readable benchmark snapshot to this file")
		storeMode  = flag.Bool("store", false, "benchmark the document store open paths instead of Table 2")
		parallel   = flag.Int("p", 1, "fixpoint worker-pool width (0 = GOMAXPROCS)")
		sweep      = flag.String("parallel", "", "comma-separated worker counts to sweep (e.g. 1,2,4,8); writes one entry per (cell, p)")
		optLevel   = flag.Int("O", 1, "relational plan optimizer level (0 = verbatim plan, 1 = rewrite rules on)")
		optSweep   = flag.Bool("opt-sweep", false, "measure every cell at -O0 and -O1 (entries suffixed /O=N); requires -json")
		indexSweep = flag.Bool("index-sweep", false, "measure every cell with index probing off and on (entries suffixed /ix=N); requires -json")
		cacheSweep = flag.Bool("cache-sweep", false, "measure every cell uncached and through warm plan/result caches (entries suffixed /cache=N); requires -json")
	)
	flag.Parse()

	if *optLevel != 0 && *optLevel != 1 {
		fmt.Fprintf(os.Stderr, "ifpbench: unknown optimizer level -O%d (use 0 or 1)\n", *optLevel)
		os.Exit(2)
	}

	if *storeMode {
		if err := runStoreBench(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

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

	if *cacheSweep {
		if *expID == "" {
			exps = sweepDefaults()
		}
		if err := writeCacheSweep(*jsonPath, exps, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *optSweep {
		if err := writeOptSweep(*jsonPath, exps, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *indexSweep {
		if err := writeIndexSweep(*jsonPath, exps, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *sweep != "" {
		counts, err := parseCounts(*sweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
			os.Exit(2)
		}
		if *expID == "" {
			exps = sweepDefaults()
		}
		if err := writeParallelSweep(*jsonPath, exps, counts, *optLevel == 0); err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, exps, *parallel, *optLevel == 0); err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runner := &bench.Runner{Parallelism: *parallel, Opt0: *optLevel == 0}
	var rows []*bench.Row
	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "running %s %s…\n", e.ID, e.Name)
		start := time.Now()
		row, err := runner.Run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ifpbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "  done in %v (document %d KiB)\n",
			time.Since(start).Round(time.Millisecond), row.DocBytes/1024)
		rows = append(rows, row)
	}
	if *markdown {
		writeMarkdown(rows)
		return
	}
	bench.WriteTable(os.Stdout, rows)
}

// BenchEntry/BenchFile are the snapshot schema, shared (via internal/bench)
// with the checked-in BENCH_<n>.json trajectory files and the benchdiff
// regression gate.
type (
	BenchEntry = bench.Entry
	BenchFile  = bench.File
)

// writeJSON measures every (experiment, engine, algorithm) cell — each
// cell its own testing.Benchmark run, with document generation/parsing
// hoisted out of the timed region — and writes one entry per cell so
// snapshots are diffable against BENCH_<n>.json trajectory entries.
func writeJSON(path string, exps []bench.Experiment, parallelism int, opt0 bool) error {
	out := newBenchFile()
	cfg := measureConfig{counts: []int{parallelism}, optLevels: []int{1}}
	if opt0 {
		// Tag the entries: a verbatim-plan snapshot must never be
		// name-identical to (and silently diffable against) an optimized
		// one in the BENCH_<n>.json trajectory.
		cfg.optLevels, cfg.tagO = []int{0}, true
	}
	for _, e := range exps {
		entries, err := measureExperiment(e, cfg)
		if err != nil {
			return err
		}
		out.Entries = append(out.Entries, entries...)
	}
	return writeBenchFile(path, out)
}

// writeOptSweep measures each cell with the plan optimizer off and on
// (entries suffixed /O=0 and /O=1), so a snapshot records what the rewrite
// layer buys per (experiment, engine, algorithm) cell. Interpreter cells
// are measured once (tagged /O=1): the flag is a no-op without a plan.
func writeOptSweep(path string, exps []bench.Experiment, parallelism int) error {
	if path == "" {
		return fmt.Errorf("-opt-sweep requires -json <file>")
	}
	out := newBenchFile()
	cfg := measureConfig{counts: []int{parallelism}, optLevels: []int{0, 1}, tagO: true}
	for _, e := range exps {
		entries, err := measureExperiment(e, cfg)
		if err != nil {
			return err
		}
		out.Entries = append(out.Entries, entries...)
	}
	return writeBenchFile(path, out)
}

// writeIndexSweep measures each cell with the name-index probe path
// disabled (pure arena scans, /ix=0) and enabled (the production default,
// /ix=1), so a snapshot records what index probing buys per (experiment,
// engine, algorithm) cell. Interpreter cells never probe and are measured
// once, tagged /ix=1 as the default level.
func writeIndexSweep(path string, exps []bench.Experiment, parallelism int) error {
	if path == "" {
		return fmt.Errorf("-index-sweep requires -json <file>")
	}
	out := newBenchFile()
	cfg := measureConfig{counts: []int{parallelism}, optLevels: []int{1}, ixLevels: []int{0, 1}, tagIx: true}
	for _, e := range exps {
		entries, err := measureExperiment(e, cfg)
		if err != nil {
			return err
		}
		out.Entries = append(out.Entries, entries...)
	}
	return writeBenchFile(path, out)
}

// sweepDefaults is the worker-sweep experiment subset: the fixpoint
// workloads whose round internals dominate, with the larger bidder
// networks dropped to keep a full 1/2/4/8 sweep tractable.
func sweepDefaults() []bench.Experiment {
	var exps []bench.Experiment
	for _, id := range []string{"T2.1", "T2.5", "T2.6", "T2.8"} {
		if e, ok := bench.ExperimentByID(id); ok {
			exps = append(exps, e)
		}
	}
	return exps
}

// writeParallelSweep measures each cell once per requested worker count
// and records the count in the entry name (…/p=N), so a snapshot holds
// the whole scaling curve for every (experiment, engine, algorithm) cell.
func writeParallelSweep(path string, exps []bench.Experiment, counts []int, opt0 bool) error {
	if path == "" {
		return fmt.Errorf("-parallel requires -json <file>")
	}
	out := newBenchFile()
	cfg := measureConfig{counts: counts, tagP: true, optLevels: []int{1}}
	if opt0 {
		cfg.optLevels, cfg.tagO = []int{0}, true
	}
	for _, e := range exps {
		entries, err := measureExperiment(e, cfg)
		if err != nil {
			return err
		}
		out.Entries = append(out.Entries, entries...)
	}
	return writeBenchFile(path, out)
}

// measureConfig is one sweep specification: the worker counts and
// optimizer levels to measure every cell at, and which dimensions to tag
// into entry names.
type measureConfig struct {
	counts    []int
	optLevels []int // subset of {0, 1}
	ixLevels  []int // subset of {0, 1}; nil = indexed only (the default)
	tagP      bool
	tagO      bool
	tagIx     bool
}

// measureExperiment benchmarks one experiment's four cells at each
// (worker count, optimizer level). The document is generated and parsed
// once for the whole sweep; only the runner's pool width and optimizer
// switch change between cells (RunCell reads them at call time through the
// prepared experiment's runner pointer).
func measureExperiment(e bench.Experiment, cfg measureConfig) ([]BenchEntry, error) {
	var entries []BenchEntry
	runner := &bench.Runner{}
	prep, err := runner.Prepare(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	for _, p := range cfg.counts {
		runner.Parallelism = p
		for _, engine := range []string{bench.EngineInterp, bench.EngineRelational} {
			for _, alg := range []core.Algorithm{core.Naive, core.Delta} {
				ixLevels := cfg.ixLevels
				if ixLevels == nil {
					ixLevels = []int{1} // indexed execution is the default
				}
				for _, o := range cfg.optLevels {
					if engine == bench.EngineInterp && o == 0 && len(cfg.optLevels) > 1 {
						continue // no plan, no optimizer: skip the duplicate cell
					}
					runner.Opt0 = o == 0
					for _, ix := range ixLevels {
						runner.NoIndex = ix == 0
						name := fmt.Sprintf("%s/%s/%s/%s", e.ID, e.Name, engine, alg)
						if tagged := o; cfg.tagO {
							if engine == bench.EngineInterp && len(cfg.optLevels) > 1 {
								tagged = 1 // sweep measures interp once, as the default level
							}
							name = fmt.Sprintf("%s/O=%d", name, tagged)
						}
						if cfg.tagIx {
							// Both engines honour ix: it is the step kernel's
							// run-time NoIndex switch.
							name = fmt.Sprintf("%s/ix=%d", name, ix)
						}
						if cfg.tagP {
							name = fmt.Sprintf("%s/p=%d", name, p)
						}
						fmt.Fprintf(os.Stderr, "measuring %s…\n", name)
						// Collect between cells: an earlier cell's giant tables
						// otherwise inflate the GC pacing target and tax every
						// later cell — which skews exactly the cross-p (and
						// cross-O) comparisons a sweep exists to make.
						runtime.GC()
						runtime.GC()
						var meas bench.Measurement
						var runErr error
						res := testing.Benchmark(func(b *testing.B) {
							b.ReportAllocs()
							for i := 0; i < b.N; i++ {
								m, err := prep.RunCell(engine, alg)
								if err != nil {
									// b.Fatal would swallow the error into the
									// discarded benchmark buffer and return a zero
									// result; surface it.
									runErr = err
									b.FailNow()
								}
								meas = m
							}
						})
						if runErr != nil {
							return nil, fmt.Errorf("%s: %w", name, runErr)
						}
						if res.N == 0 {
							return nil, fmt.Errorf("%s: benchmark produced no measurement", name)
						}
						entries = append(entries, BenchEntry{
							Name:     name,
							Phase:    "snapshot",
							NsOp:     float64(res.NsPerOp()),
							BytesOp:  res.AllocedBytesPerOp(),
							AllocsOp: res.AllocsPerOp(),
							NodesFed: meas.Stats.NodesFedBack,
							Depth:    meas.Stats.Depth,
							PhaseNs:  meas.Phases,
						})
					}
				}
			}
		}
	}
	return entries, nil
}

func newBenchFile() BenchFile { return bench.NewFile() }

func writeBenchFile(path string, out BenchFile) error { return bench.WriteFile(path, out) }

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad worker count %q in -parallel", part)
		}
		counts = append(counts, p)
	}
	return counts, nil
}

func writeMarkdown(rows []*bench.Row) {
	fmt.Println("| Query | Rel Naive | Rel Delta | Interp Naive | Interp Delta | Fed back (Naive) | Fed back (Delta) | Depth |")
	fmt.Println("|---|---:|---:|---:|---:|---:|---:|---:|")
	for _, row := range rows {
		get := func(engine string, alg core.Algorithm) bench.Measurement {
			for _, m := range row.Measurements {
				if m.Engine == engine && m.Algorithm == alg {
					return m
				}
			}
			return bench.Measurement{}
		}
		rn, rd := get(bench.EngineRelational, core.Naive), get(bench.EngineRelational, core.Delta)
		in, id := get(bench.EngineInterp, core.Naive), get(bench.EngineInterp, core.Delta)
		depth := rn.Stats.Depth
		if in.Stats.Depth > depth {
			depth = in.Stats.Depth
		}
		fmt.Printf("| %s | %v | %v | %v | %v | %d | %d | %d |\n",
			row.Exp.Name,
			rn.Elapsed.Round(time.Millisecond), rd.Elapsed.Round(time.Millisecond),
			in.Elapsed.Round(time.Millisecond), id.Elapsed.Round(time.Millisecond),
			rn.Stats.NodesFedBack+in.Stats.NodesFedBack,
			rd.Stats.NodesFedBack+id.Stats.NodesFedBack,
			depth)
	}
}
