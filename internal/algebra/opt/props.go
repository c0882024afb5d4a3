// Package opt is the property-driven plan optimizer: a rewrite layer
// between the loop-lifting compiler and the relational executor. It mirrors
// Pathfinder's peephole optimization pipeline — the part of the paper's
// MonetDB/XQuery substrate whose performance story rests on algebraic
// rewriting rather than operator speed alone: property inference annotates
// every plan node (live columns, key sets, duplicate-freedom, loop
// dependence), and a rule engine applies semantics-preserving rewrites to a
// fixed point (dead-producer and dead-column pruning, distinct elimination
// over keyed inputs, union alignment) before a final hash-consing pass
// merges structurally identical sub-plans so the executor's DAG
// memoization fires on equal-but-not-pointer-shared subtrees. These are
// the rewrites that need whole-plan facts; a local simplification of a
// pattern the compiler emits (a comparison's ⋉, a value-filtered step)
// belongs in the compiler, which emits the simplified form directly. A pruned π is rebuilt through
// algebra.Project, the compiler's own π constructor, which composes π∘π
// and drops identity π; no rule of this package does either.
//
// Every rewrite preserves the executed relation exactly — row multiset AND
// row order — so -O0 and -O1 plans produce byte-identical results and
// identical fixpoint instrumentation (guarded by internal/difftest).
package opt

import (
	"slices"
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
// otherwise grow combinatorially); maxKeyCols sizes the scratch a key is
// assembled in before addKey copies it.
const (
	maxKeys    = 4
	maxKeyCols = 8
)

// Analysis memoizes inferred properties per node. They are a function of
// the node's subtree, so one analysis serves every DAG that shares it.
type Analysis struct {
	props map[*algebra.Node]*Props
	slab  []Props // backing store handed out by infer, a chunk at a time
}

// Analyze infers properties bottom-up for every node reachable from root.
func Analyze(root *algebra.Node) *Analysis {
	a := newAnalysis()
	a.infer(root)
	return a
}

// newAnalysis is an empty analysis, filled as Props is asked.
func newAnalysis() *Analysis { return &Analysis{props: map[*algebra.Node]*Props{}} }

// Props returns the inferred properties of n (inferring on first use, so
// the analysis can serve nodes off the original DAG lazily).
func (a *Analysis) Props(n *algebra.Node) *Props { return a.infer(n) }

func (a *Analysis) infer(n *algebra.Node) *Props {
	if p, ok := a.props[n]; ok {
		return p
	}
	if len(a.slab) == 0 {
		a.slab = make([]Props, 64)
	}
	p := &a.slab[0]
	a.slab = a.slab[1:]
	a.props[n] = p // DAGs are acyclic; pre-registering guards stray cycles
	var kidBuf [3]*Props
	kids := kidBuf[:0]
	for range n.Kids {
		kids = append(kids, nil)
	}
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
	case algebra.OpRecBase, algebra.OpMu:
		// µ results and recursion-base feeds are materialized xdm.Family
		// tables: nodes deduplicated per iteration, pos the per-iteration
		// rank. A key loop holds each key iteration once.
		p.Keys = [][]string{{"item", "iter"}, {"iter", "pos"}}
		if n.LitCols != nil {
			p.Keys = [][]string{{"iter"}}
		}
		p.LoopDep = p.LoopDep || n.Op == algebra.OpRecBase
	case algebra.OpProject:
		// A key set survives a projection when every key column keeps at
		// least one output name (the first that reads it).
		for _, key := range kids[0].Keys {
			var buf [maxKeyCols]string
			mapped := buf[:0]
			for _, c := range key {
				i := slices.IndexFunc(n.Proj, func(pr algebra.ProjPair) bool { return pr.In == c })
				if i < 0 {
					break
				}
				mapped = append(mapped, n.Proj[i].Out)
			}
			if len(mapped) == len(key) {
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
		p.addKey(n.Kids[0].Schema())
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
		p.addKey(n.GroupCols)
	case algebra.OpRowTag:
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		p.addKey([]string{n.Col})
	case algebra.OpRowNum:
		for _, k := range kids[0].Keys {
			p.addKey(k)
		}
		var buf [maxKeyCols]string
		p.addKey(append(append(buf[:0], n.GroupCols...), n.Col))
	case algebra.OpStep:
		// One output row per (input row, distinct axis match): a key not
		// involving the replaced context column extends by it.
		for _, k := range kids[0].Keys {
			if !contains(k, n.ItemCol) {
				var buf [maxKeyCols]string
				p.addKey(append(append(buf[:0], k...), n.ItemCol))
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

// addKey records a copy of key, sorted, unless it is already known.
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
