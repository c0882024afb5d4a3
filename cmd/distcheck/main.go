// Command distcheck analyzes the distributivity of every inflationary
// fixed point in a query with both of the paper's approximations: the
// syntactic ds$x(·) rules of Figure 5 and the algebraic ∪ push-up of
// Section 4. It reports, per site, which algorithm each engine's auto mode
// picks: the interpreter decides by the syntactic verdict, the relational
// engine by the extended algebraic one.
//
// Usage:
//
//	distcheck -q 'with $x seeded by . recurse $x/child::a'
//	distcheck -f query.xq [-hint] [-explain]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	ifpxq "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the report is
// testable without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryText = fs.String("q", "", "query text")
		queryFile = fs.String("f", "", "query file")
		hint      = fs.Bool("hint", false, "apply the §3.2 distributivity-hint rewriting and re-check")
		explain   = fs.Bool("explain", false, "also print the relational plan")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "distcheck:", err)
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
		fmt.Fprintln(stderr, "distcheck: provide a query with -q or -f")
		return 2
	}
	q, err := ifpxq.Parse(src)
	if err != nil {
		return fatal(err)
	}
	if *hint {
		q = q.Hint()
		fmt.Fprintln(stdout, "after hint rewriting:")
		fmt.Fprintln(stdout, " ", q.Source())
	}
	reports := q.Distributivity()
	if len(reports) == 0 {
		fmt.Fprintln(stdout, "no inflationary fixed points in this query")
		return 0
	}
	for i, rep := range reports {
		fmt.Fprintf(stdout, "fixpoint %d (recursion variable $%s):\n", i+1, rep.Var)
		fmt.Fprintf(stdout, "  syntactic ds$x(·):  %v", rep.Syntactic)
		if rep.Syntactic {
			fmt.Fprintf(stdout, "  (rule %s)\n", rep.SyntacticRule)
		} else {
			fmt.Fprintf(stdout, "  (%s)\n", rep.SyntacticRule)
		}
		rel := "n/a"
		if rep.AlgebraicError != "" {
			fmt.Fprintf(stdout, "  algebraic push-up:  n/a (%s)\n", rep.AlgebraicError)
		} else {
			fmt.Fprintf(stdout, "  algebraic push-up:  strict=%v extended=%v\n", rep.Algebraic, rep.AlgebraicExt)
			rel = ifpxq.ModeAuto.Pick(rep.AlgebraicExt).String()
		}
		fmt.Fprintf(stdout, "  auto mode runs:     %s (interp), %s (rel)\n", ifpxq.ModeAuto.Pick(rep.Syntactic), rel)
	}
	if *explain {
		ex, err := q.Explain(ifpxq.ModeAuto, ifpxq.Opt0)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintln(stdout, "relational plan:")
		fmt.Fprint(stdout, ex.Raw)
	}
	return 0
}
