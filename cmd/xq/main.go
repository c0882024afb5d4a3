// Command xq evaluates an XQuery (with the paper's `with … seeded by …
// recurse` inflationary fixed point form) against XML documents resolved
// from a persistent snapshot store and/or a base directory.
//
// fn:doc resolution order is explicit: the snapshot store (when -store is
// given: <store>/<uri>.xqs, then <store>/<uri> as XML), then -dir, then an
// error naming the URI and every path searched.
//
// Usage:
//
//	xq -q 'count(doc("data.xml")//item)' [-dir .] [-engine interp|rel]
//	   [-mode auto|naive|delta] [-O 0|1] [-explain] [-stats]
//	xq -f query.xq -dir testdata
//	xq -q '...' -store snapshots/ -mmap -store-stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	ifpxq "repro"
	"repro/internal/xdm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the CLI surface —
// flag validation, store→dir resolution errors, -store-stats output — is
// testable without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryText  = fs.String("q", "", "query text")
		queryFile  = fs.String("f", "", "query file")
		dir        = fs.String("dir", ".", "base directory for fn:doc URIs")
		storeDir   = fs.String("store", "", "snapshot store directory (searched before -dir)")
		mmap       = fs.Bool("mmap", false, "open store snapshots via mmap")
		storeStats = fs.Bool("store-stats", false, "print document cache statistics")
		engine     = fs.String("engine", ifpxq.EngineInterpreter.String(), "engine: interp (tree-at-a-time) or rel (relational)")
		mode       = fs.String("mode", ifpxq.ModeAuto.String(), "fixpoint algorithm: auto, naive, delta")
		optLevel   = fs.Int("O", 1, "relational plan optimizer level: 0 = verbatim plan, 1 = rewrite rules on")
		explain    = fs.Bool("explain", false, "print the relational plans (raw and, at -O1, optimized) instead of evaluating")
		analyze    = fs.Bool("analyze", false, "EXPLAIN ANALYZE: run the query and print phases, the plan annotated with actuals, and per-round fixpoint spans")
		stats      = fs.Bool("stats", false, "print fixpoint instrumentation")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "xq:", err)
		return 1
	}

	src := *queryText
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			return fatal(err)
		}
		src = string(data)
	}
	if src == "" {
		fmt.Fprintln(stderr, "xq: provide a query with -q or -f")
		fs.Usage()
		return 2
	}

	q, err := ifpxq.Parse(src)
	if err != nil {
		return fatal(err)
	}
	level, err := ifpxq.ParseOptLevel(strconv.Itoa(*optLevel))
	if err != nil {
		return fatal(fmt.Errorf("-O%d: %w", *optLevel, err))
	}
	fmode, err := ifpxq.ParseMode(*mode)
	if err != nil {
		return fatal(err)
	}
	eng, err := ifpxq.ParseEngine(*engine)
	if err != nil {
		return fatal(err)
	}

	if *explain {
		// Print the plan that actually runs in this mode: the raw
		// translation and, when the optimizer is on, the rewritten plan the
		// executor gets.
		ex, err := q.Explain(fmode, level)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintln(stdout, "-- raw plan --")
		fmt.Fprint(stdout, ex.Raw)
		if ex.Optimized != "" {
			fmt.Fprintln(stdout, "-- optimized plan (-O1, executed) --")
			fmt.Fprint(stdout, ex.Optimized)
		}
		return 0
	}

	opts := ifpxq.Options{Engine: eng, Docs: ifpxq.DocsFromDir(*dir), Mode: fmode, Opt: level}
	var st *ifpxq.Store
	if *storeDir != "" {
		var err error
		st, err = ifpxq.OpenStore(ifpxq.StoreOptions{Dir: *storeDir, Mmap: *mmap})
		if err != nil {
			return fatal(err)
		}
		opts.Store = st
	}
	if *analyze {
		rep, err := q.Analyze(opts)
		if err != nil {
			if rep == nil {
				return fatal(err)
			}
			// Budget truncation: print the partial report, then the error.
			fmt.Fprint(stdout, rep.Render())
			return fatal(err)
		}
		fmt.Fprint(stdout, rep.Render())
		return 0
	}

	res, err := q.Eval(opts)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout, res.String())
	if *storeStats && st != nil {
		s := st.Cache().Stats()
		fmt.Fprintf(stderr, "store: hits=%d misses=%d evictions=%d docs=%d bytes=%d\n",
			s.Hits, s.Misses, s.Evictions, s.Docs, s.Bytes)
		// Index state per resident document (persistent = decoded from a
		// v2 snapshot; built = lazily constructed in memory), plus the
		// process-wide probe/fallback counters for the step executor.
		var indexed, persistent int
		var ixBytes int64
		for _, di := range st.Cache().Docs() {
			if di.Index.Present {
				indexed++
				ixBytes += di.Index.Bytes
			}
			if di.Index.Persistent {
				persistent++
			}
		}
		probes, fallbacks := xdm.IndexCounters()
		fmt.Fprintf(stderr, "index: docs=%d persistent=%d bytes=%d probes=%d fallbacks=%d\n",
			indexed, persistent, ixBytes, probes, fallbacks)
	}
	if *stats {
		for i, fp := range res.Fixpoints {
			fmt.Fprintf(stderr,
				"fixpoint %d: %v distributive=%v executions=%d depth=%d fed-back=%d result=%d body-inputs=%d\n",
				i+1, fp.Algorithm, fp.Distributive, fp.Executions,
				fp.Stats.Depth, fp.Stats.NodesFedBack, fp.Stats.ResultSize, fp.BodyInputs())
		}
	}
	return 0
}
