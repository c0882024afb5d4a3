// Package opt is the property-driven plan optimizer: a rewrite layer
// between the loop-lifting compiler and the relational executor. It mirrors
// Pathfinder's peephole optimization pipeline — the part of the paper's
// MonetDB/XQuery substrate whose performance story rests on algebraic
// rewriting rather than operator speed alone: property inference annotates
// every plan node (live columns, key sets, duplicate-freedom, loop
// dependence), and a rule engine applies semantics-preserving rewrites to a
// fixed point (dead-column pruning, selection pushdown, distinct elimination
// over keyed inputs, join→semijoin reduction, projection collapsing) before
// a final hash-consing pass merges structurally identical sub-plans so the
// executor's DAG memoization fires on equal-but-not-pointer-shared subtrees.
//
// Every rewrite preserves the executed relation exactly — row multiset AND
// row order — so -O0 and -O1 plans produce byte-identical results and
// identical fixpoint instrumentation (guarded by internal/difftest).
package opt

import (
	"sort"
	"strings"

	"repro/internal/algebra"
)

// Props are the inferred static properties of one plan node's output.
type Props struct {
	// Keys holds key sets: column sets on which no two output rows agree.
	// Any key set implies the full rows are duplicate-free. An empty key
	// set means the relation holds at most one row.
	Keys [][]string
	// LoopDep reports whether the subtree reaches an OpRecBase leaf, i.e.
	// the node must be re-evaluated on every fixpoint round.
	LoopDep bool
}

// Distinct reports whether the node's rows are provably duplicate-free.
func (p *Props) Distinct() bool { return len(p.Keys) > 0 }

// HasKeyWithin reports whether some key set is contained in cols.
func (p *Props) HasKeyWithin(cols map[string]bool) bool {
	for _, k := range p.Keys {
		ok := true
		for _, c := range k {
			if !cols[c] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// maxKeys bounds the key sets tracked per node (join/cross products would
// otherwise grow combinatorially).
const maxKeys = 4

// Analysis memoizes inferred properties over one plan DAG.
type Analysis struct {
	props map[*algebra.Node]*Props
}

// Analyze infers properties bottom-up for every node reachable from root.
func Analyze(root *algebra.Node) *Analysis {
	a := &Analysis{props: map[*algebra.Node]*Props{}}
	a.infer(root)
	return a
}

// Props returns the inferred properties of n (inferring on first use, so
// the analysis can serve nodes off the original DAG lazily).
func (a *Analysis) Props(n *algebra.Node) *Props { return a.infer(n) }

func (a *Analysis) infer(n *algebra.Node) *Props {
	if p, ok := a.props[n]; ok {
		return p
	}
	p := &Props{}
	a.props[n] = p // DAGs are acyclic; pre-registering guards stray cycles
	kids := make([]*Props, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = a.infer(k)
		p.LoopDep = p.LoopDep || kids[i].LoopDep
	}
	switch n.Op {
	case algebra.OpLit:
		if len(n.Rows) <= 1 {
			p.Keys = [][]string{{}}
		}
	case algebra.OpDoc:
		p.Keys = [][]string{{}}
	case algebra.OpRecBase, algebra.OpRecDelta, algebra.OpMu:
		// µ results, recursion-base feeds, and per-round deltas are iterSets
		// tables: nodes deduplicated per iteration, pos the per-iteration rank.
		p.Keys = [][]string{{"item", "iter"}, {"iter", "pos"}}
		p.LoopDep = p.LoopDep || n.Op != algebra.OpMu
	case algebra.OpProject:
		// A key set survives a projection when every key column keeps at
		// least one output name.
		outsOf := map[string][]string{}
		for _, pr := range n.Proj {
			outsOf[pr.In] = append(outsOf[pr.In], pr.Out)
		}
		for _, key := range kids[0].Keys {
			mapped := make([]string, 0, len(key))
			ok := true
			for _, c := range key {
				outs := outsOf[c]
				if len(outs) == 0 {
					ok = false
					break
				}
				mapped = append(mapped, outs[0])
			}
			if ok {
				p.addKey(mapped)
			}
		}
	case algebra.OpAttach, algebra.OpNumOp:
		p.Keys = kids[0].Keys
	case algebra.OpSelect, algebra.OpSemiJoin, algebra.OpAntiJoin, algebra.OpDiff:
		// Row subsets (a sub-bag of the left input, for \): its keys survive.
		p.Keys = kids[0].Keys
	case algebra.OpDistinct:
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		p.addKey(append([]string{}, n.Kids[0].Schema()...))
	case algebra.OpJoin:
		var eqL, eqR []string
		for _, pr := range n.Preds {
			if pr.Cmp == algebra.NumEq {
				eqL = append(eqL, pr.L)
				eqR = append(eqR, pr.R)
			}
		}
		// A keyed side bounds the other side's match count to one, so the
		// other side's keys survive; pairwise unions always key the product.
		if kids[1].HasKeyWithin(toSet(eqR)) {
			for _, k := range kids[0].Keys {
				p.addKey(k)
			}
		}
		if kids[0].HasKeyWithin(toSet(eqL)) {
			for _, k := range kids[1].Keys {
				p.addKey(k)
			}
		}
		p.addPairKeys(kids[0].Keys, kids[1].Keys)
	case algebra.OpCross:
		p.addPairKeys(kids[0].Keys, kids[1].Keys)
	case algebra.OpGroupCount:
		p.addKey(append([]string{}, n.GroupCols...))
	case algebra.OpRowTag:
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		p.addKey([]string{n.Col})
	case algebra.OpRowNum:
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		p.addKey(append(append([]string{}, n.GroupCols...), n.Col))
	case algebra.OpStep:
		// One output row per (input row, distinct axis match): a key not
		// involving the replaced context column extends by it.
		for _, k := range kids[0].Keys {
			if !contains(k, n.ItemCol) {
				p.addKey(append(append([]string{}, k...), n.ItemCol))
			}
		}
	case algebra.OpUnion, algebra.OpIDLookup:
		// No keys survive concatenation, and repeated IDREF tokens can emit
		// the same match twice per row.
	case algebra.OpCtor:
		// At most one constructed node per live loop iteration.
		if kids[0].HasKeyWithin(map[string]bool{"iter": true}) {
			p.addKey([]string{"iter"})
		}
	}
	return p
}

func (p *Props) addKey(key []string) {
	if len(p.Keys) >= maxKeys {
		return
	}
	k := append([]string{}, key...)
	sort.Strings(k)
	for _, have := range p.Keys {
		if equalStrings(have, k) {
			return
		}
	}
	p.Keys = append(p.Keys, k)
}

func (p *Props) addPairKeys(l, r [][]string) {
	for _, kl := range l {
		for _, kr := range r {
			p.addKey(append(append([]string{}, kl...), kr...))
		}
	}
}

func toSet(cols []string) map[string]bool {
	s := make(map[string]bool, len(cols))
	for _, c := range cols {
		s[c] = true
	}
	return s
}

func contains(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Annotation renders a node's properties for explain output: live columns
// are rendered by the rewriter (it owns liveness); this covers the
// bottom-up properties. Deterministic and compact, e.g.
// "key=(iter,item) rec".
func (a *Analysis) Annotation(n *algebra.Node) string {
	p, ok := a.props[n]
	if !ok {
		return ""
	}
	var parts []string
	if len(p.Keys) > 0 {
		keys := make([]string, len(p.Keys))
		for i, k := range p.Keys {
			keys[i] = "(" + strings.Join(k, ",") + ")"
		}
		sort.Strings(keys)
		parts = append(parts, "key="+strings.Join(keys, ""))
	}
	if p.LoopDep {
		parts = append(parts, "rec")
	}
	return strings.Join(parts, " ")
}
