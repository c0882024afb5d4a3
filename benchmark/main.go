// Command benchmark is the repository's benchmark: it builds cmd/xqd, runs
// it as a subprocess per workload, drives it over HTTP with a closed loop
// of two clients, checks every reply against an oracle, and prints the
// end-to-end metrics; a traced run adds the per-layer metrics. README.md
// has the tables; BENCHMARK.json at the repository root is the contract.
//
//	go run -C benchmark . [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--repeat n] [--json file]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished but whose replies or workload
// shape were wrong; the result line has been printed.
var errIncorrect = errors.New("incorrect results")

func run(ctx context.Context) error {
	var (
		name     = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all six, as a report)")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: relabels document identifiers and orders requests")
		seconds  = flag.Float64("seconds", gateSeconds, "measured window per workload, seconds")
		trace    = flag.Int("trace", 1, "1 adds the in-process traced run and the per-layer metrics; 0 measures end to end only")
		repeat   = flag.Int("repeat", 1, "run the full set this many times and gate each end-to-end metric's spread on its bound")
		jsonOut  = flag.String("json", "", "also write the full report to this file")
		expected = flag.Bool("write-expected", false, "regenerate expected/ for the default seed and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return errors.New("bad arguments")
	}
	benchDir, err := os.Getwd()
	if err != nil {
		return err
	}
	e := &env{benchDir: benchDir, repoRoot: filepath.Dir(benchDir), outDir: filepath.Join(benchDir, "out")}
	if _, err := os.Stat(filepath.Join(e.repoRoot, "cmd", "xqd")); err != nil {
		return fmt.Errorf("run from the benchmark directory of a checkout (go run -C benchmark .): %w", err)
	}
	if *expected {
		return writeExpected(benchDir)
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	if e.xqdBin, err = buildXqd(ctx, e.repoRoot, e.outDir); err != nil {
		return err
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := e.runWorkload(ctx, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printRun(res)
		if err := printResultLine(res, *trace == 1); err != nil {
			return err
		}
		if !res.correct() {
			return errIncorrect
		}
		return nil
	}

	fp := fingerprint(e.repoRoot)
	fmt.Println(fp)
	var sets [][]*runResult
	bad := false
	for rep := 0; rep < *repeat; rep++ {
		var set []*runResult
		for _, w := range workloads {
			res, err := e.runWorkload(ctx, w, *seed, *seconds, *trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(res)
			bad = bad || !res.correct()
			set = append(set, res)
		}
		printEngineRatio(set)
		sets = append(sets, set)
	}
	if *repeat > 1 && !printSpreads(sets) {
		bad = true
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(struct {
			Machine string         `json:"machine"`
			Sets    [][]*runResult `json:"sets"`
		}{fp, sets}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad {
		return errIncorrect
	}
	return nil
}

// fingerprint describes the machine and checkout the numbers belong to.
func fingerprint(repoRoot string) string {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	load := "unknown"
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Fields(string(raw))[0]
	}
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d %s commit=%s loadavg1=%s clients=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, load, clients)
}

// printRun prints one run's metrics by name and unit.
func printRun(r *runResult) {
	fmt.Printf("\n== %s  seed=%d window=%gs  requests_attempted=%d requests_failed=%d samples=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Samples)
	for _, d := range endToEndDefs {
		fmt.Printf("  %-28s %12.4f %-6s (end to end, %s is better, bound %.2f)\n", d.name, r.EndToEnd[d.name], d.unit, d.better, d.bound)
	}
	fmt.Printf("  %-28s %12.4f ms     (p%g: highest percentile with ten samples beyond it)\n", "latency_ms_tail", r.TailMs, r.TailP)
	if r.PerLayer != nil {
		for _, d := range perLayerDefs {
			fmt.Printf("  %-28s %12.4f %s\n", d.name, r.PerLayer[d.name], d.unit)
		}
		span, module := largestLayer(r.LayerSelfMs)
		fmt.Printf("  traced self time per request, largest layer %s (%s):\n", span, module)
		for _, l := range spanLayers {
			fmt.Printf("    %-14s %10.4f ms  %s\n", l.span, r.LayerSelfMs[l.span], l.module)
		}
	}
	for _, p := range r.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}

// printResultLine ends the output with the one JSON object the driver reads.
func printResultLine(r *runResult, traced bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEndDefs, r.EndToEnd
	if traced {
		defs, values = perLayerDefs, r.PerLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.name] = metric{values[d.name], d.unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// printEngineRatio prints ROADMAP's yardstick "relational ≤ interpreter" on
// the shared bidder document, with both bases.
func printEngineRatio(set []*runResult) {
	var rel, in float64
	for _, r := range set {
		switch r.Workload {
		case "bidder-rel":
			rel = r.EndToEnd["latency_ms_p50"]
		case "bidder-interp":
			in = r.EndToEnd["latency_ms_p50"]
		}
	}
	if rel > 0 && in > 0 {
		fmt.Printf("\nbidder-rel / bidder-interp latency_ms_p50 = %.2f (%.3f ms / %.3f ms)\n", rel/in, rel, in)
	}
}

// printSpreads prints, per workload and end-to-end metric, the spread of
// the repeated sets ((max − min) / median) beside the metric's bound, and
// reports whether every spread is within its bound.
func printSpreads(sets [][]*runResult) bool {
	fmt.Printf("\nspread over %d sets, (max-min)/median:\n", len(sets))
	ok := true
	for i, first := range sets[0] {
		for _, d := range endToEndDefs {
			var vals []float64
			for _, set := range sets {
				vals = append(vals, set[i].EndToEnd[d.name])
			}
			sort.Float64s(vals)
			spread := (vals[len(vals)-1] - vals[0]) / percentile(vals, 50)
			verdict := "ok"
			if spread > d.bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("  %-18s %-16s %v  spread %.4f  bound %.2f  %s\n", first.Workload, d.name, vals, spread, d.bound, verdict)
		}
	}
	return ok
}
