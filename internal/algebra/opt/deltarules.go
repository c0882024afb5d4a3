package opt

import (
	"repro/internal/algebra"
)

// Delta-fed steps: the semi-naive discipline finished at the plan level.
//
// Inside a fixpoint body, a step join whose context column derives from the
// recursion base re-steps from the *whole accumulated set* every round, even
// though only the previous round's delta can produce answers the absorb pass
// has not already deduplicated away. The rewrite recognizes the derivation
// chain (π/σ/aliasing down to the OpRecBase leaf), clones it re-rooted on an
// OpRecDelta leaf, and lets the executor bind that leaf to the round's delta
// feed — so per-round step cost tracks |delta|, not |accumulated|.
//
// When it is sound:
//
//   - µ∆ sites (Mu.Delta): the feed already *is* the delta — evalMu binds
//     the delta leaf to the very same table as the base, so the rewrite is
//     exact aliasing, unconditionally.
//
//   - Naïve µ sites: sound iff the body h is linear in the recursion
//     variable, which the strict Table-1 distributivity certificate plus a
//     structural linearity scan establish. With res_k = res_{k-1} ∪ d_{k-1}
//     (disjoint) and every rec-dependent path bag-linear and row-wise, each
//     occurrence of the base distributes: h(res_k) = h[o←d_{k-1}] ∪
//     h[o←res_{k-1}] per occurrence o. The res_{k-1}-fed terms were all
//     produced (and absorbed) in round k-1 — absorb deduplicates them to
//     nothing — so feeding d_{k-1} to the rewritten occurrences changes no
//     absorb delta, no convergence round, and (because the family absorb
//     puts each iteration back in document order) not a byte of output.
//     The feed itself stays the accumulated table, so NodesFedBack and the
//     per-round fed/delta trace spans are untouched (difftest pins this).
//
// linearBody is deliberately conservative: any rec-dependent operator that
// is positional across rows (#, ϱ outside certified templates), bag-
// sensitive against older rows (\, ▷, grouped counts), identity-minting
// (ε), or a junction with two rec-dependent inputs other than ∪ blocks the
// naive-mode rewrite. Certified template/bookkeeping machinery passes: it is
// self-contained per context row, so delta-consistent inputs yield
// delta-consistent (identical) output rows.

// strictSites returns the recursion bases whose µ body carries the strict
// Table-1 distributivity certificate. Keyed by the OpRecBase leaf — the one
// node the rewriter never clones — so the map stays valid across passes
// while the µ nodes themselves are rewritten.
func strictSites(p *algebra.Plan) map[*algebra.Node]bool {
	out := map[*algebra.Node]bool{}
	for _, site := range p.Mus {
		if site.Mu != nil && site.Mu.RecBase != nil && site.Distributive {
			out[site.Mu.RecBase] = true
		}
	}
	return out
}

// deltaEligible returns the recursion bases whose derived step joins may be
// rewritten to consume the round's delta feed, judged against the *current*
// DAG: recomputed every pass because earlier passes prune the rec-dependent
// ϱ/# ddo machinery the compiler emits — a raw body is almost never linear,
// the pruned body often is.
func deltaEligible(root *algebra.Node, strict map[*algebra.Node]bool) map[*algebra.Node]bool {
	out := map[*algebra.Node]bool{}
	seen := map[*algebra.Node]bool{}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == algebra.OpMu && n.RecBase != nil {
			if n.Delta || (strict[n.RecBase] && linearBody(n)) {
				out[n.RecBase] = true
			}
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return out
}

// linearBody reports whether every rec-dependent operator in the µ body is
// bag-linear in the recursion variable with at most one rec-dependent input
// per non-∪ junction — the shape under which per-occurrence delta
// substitution is answer-preserving for naïve µ.
func linearBody(mu *algebra.Node) bool {
	deps := algebra.RecDependents(mu.Kids[1])
	for n := range deps {
		recKids := 0
		for _, k := range n.Kids {
			if deps[k] {
				recKids++
			}
		}
		switch n.Op {
		case algebra.OpRecBase, algebra.OpRecDelta, algebra.OpUnion:
			// Leaves; ∪ is the one junction that distributes on both inputs.
		case algebra.OpProject, algebra.OpSelect, algebra.OpAttach,
			algebra.OpNumOp, algebra.OpStep, algebra.OpIDLookup,
			algebra.OpDistinct, algebra.OpJoin, algebra.OpCross,
			algebra.OpSemiJoin:
			if recKids > 1 {
				return false
			}
		default:
			// Certified template/bookkeeping machinery big-steps (it is
			// per-context-row self-contained); everything else blocks.
			if !(n.Template || n.Bookkeeping) || recKids > 1 {
				return false
			}
		}
	}
	return true
}

// stepRules re-roots the context derivation chain of a step/id-lookup node
// n (with already-rewritten children) on the ∆ leaf when that is sound.
func (r *rewriter) stepRules(n *algebra.Node) *algebra.Node {
	if kid := r.deltaChain(n.Kids[0]); kid != nil {
		return copyWithKids(n, []*algebra.Node{kid})
	}
	return n
}

// deltaChain walks the context input down through row-wise bag-linear
// operators (π/σ/attach/⊚ — exactly the single-input links a derivation
// chain from the base can consist of) to an eligible OpRecBase leaf, and
// returns a private clone of the chain re-rooted on the base's ∆ leaf; nil
// means no rewrite. The clone never goes through the rewrite memo: other
// consumers of the original (shared) chain keep the accumulated feed.
// Idempotent across passes — a chain already ending in OpRecDelta returns
// nil at the default case.
func (r *rewriter) deltaChain(kid *algebra.Node) *algebra.Node {
	var chain []*algebra.Node
	cur := kid
	for {
		switch cur.Op {
		case algebra.OpRecBase:
			if !r.delta[cur] {
				return nil
			}
			out := r.recDelta(cur)
			for i := len(chain) - 1; i >= 0; i-- {
				out = copyWithKids(chain[i], []*algebra.Node{out})
			}
			return out
		case algebra.OpProject, algebra.OpSelect, algebra.OpAttach, algebra.OpNumOp:
			if len(cur.Kids) != 1 {
				return nil
			}
			chain = append(chain, cur)
			cur = cur.Kids[0]
		default:
			return nil
		}
	}
}

// recDelta interns the one ∆ leaf per recursion base for this pass (the
// final hash-consing pass merges across passes by the base's identity).
func (r *rewriter) recDelta(rb *algebra.Node) *algebra.Node {
	if d, ok := r.recDeltas[rb]; ok {
		return d
	}
	d := &algebra.Node{Op: algebra.OpRecDelta, RecBase: rb}
	r.recDeltas[rb] = d
	return d
}
