package opt

import (
	"sort"
	"strings"

	"repro/internal/algebra"
)

// maxPasses bounds the rule-engine fixed point. Each pass is a full
// liveness + property analysis plus one bottom-up rewrite; rule
// interactions (a removed δ unprotects columns for the next pruning pass, a
// pushed σ meets the next π) converge in a handful of passes on real plans.
const maxPasses = 12

// Optimize rewrites a compiled plan in place: the rule engine runs to a
// fixed point, a hash-consing pass merges structurally identical sub-plans
// (so the executor's per-node memoization fires on equal-but-not-shared
// subtrees), µ sites are re-pointed at their rewritten operators, and the
// loop-dependence property of the final DAG is published for the executor.
// Plan.Raw keeps the verbatim compiler output for explain diagnostics.
func Optimize(p *algebra.Plan) {
	if p == nil || p.Root == nil {
		return
	}
	root := p.Root
	strict := strictSites(p)
	for i := 0; i < maxPasses; i++ {
		r := newRewriter(root, deltaEligible(root, strict))
		next := r.rewrite(root)
		if !r.changed {
			break
		}
		root = next
	}
	root = hashCons(root)
	p.Root = root
	remapMus(p, root)
	// Publish the loop-dependence property over the final DAG with the
	// executor's own derivation, so -O0 (which re-derives) and -O1 (which
	// consumes this map) can never disagree.
	p.LoopDeps = algebra.RecDependents(root)
}

// remapMus re-points every µ site at its counterpart in the optimized DAG.
// Recursion-base leaves are never cloned (the executor rebinds them by
// identity), so the shared OpRecBase pointer identifies each site.
func remapMus(p *algebra.Plan, root *algebra.Node) {
	byRB := map[*algebra.Node]*algebra.Node{}
	seen := map[*algebra.Node]bool{}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == algebra.OpMu {
			byRB[n.RecBase] = n
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	for _, site := range p.Mus {
		if site.Mu != nil && site.Mu.RecBase != nil {
			if m, ok := byRB[site.Mu.RecBase]; ok {
				site.Mu = m
			}
		}
	}
}

// Annotate returns an explain annotation hook over root: for each node it
// renders the inferred bottom-up properties (key sets, loop dependence) plus
// the live columns when they are a strict subset of the schema — exactly
// the evidence the rewrite rules act on.
func Annotate(root *algebra.Node) func(*algebra.Node) string {
	an := Analyze(root)
	live, _ := liveness(root)
	return func(n *algebra.Node) string {
		parts := make([]string, 0, 2)
		if l, ok := live[n]; ok {
			schema := n.Schema()
			if len(l) < len(schema) {
				cols := make([]string, 0, len(l))
				for c := range l {
					cols = append(cols, c)
				}
				sort.Strings(cols)
				parts = append(parts, "live=("+strings.Join(cols, ",")+")")
			}
		}
		if ann := an.Annotation(n); ann != "" {
			parts = append(parts, ann)
		}
		return strings.Join(parts, " ")
	}
}
