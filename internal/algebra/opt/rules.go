package opt

import (
	"repro/internal/algebra"
)

// colset is a set of column names.
type colset map[string]bool

func (s colset) clone() colset {
	out := make(colset, len(s))
	for c := range s {
		out[c] = true
	}
	return out
}

// liveness computes, for every node reachable from root, the union over all
// parents of the output columns they read (the live-column property), plus
// the number of parent edges per node. The root's full schema counts as
// live: result extraction may read any of it.
func liveness(root *algebra.Node) (map[*algebra.Node]colset, map[*algebra.Node]int) {
	parents := map[*algebra.Node]int{}
	var count func(n *algebra.Node)
	seen := map[*algebra.Node]bool{}
	count = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, k := range n.Kids {
			parents[k]++
			count(k)
		}
	}
	count(root)

	live := map[*algebra.Node]colset{root: toSet(root.Schema())}
	pending := map[*algebra.Node]int{}
	for n, c := range parents {
		pending[n] = c
	}
	// Process each node once all its parent edges have contributed (plans
	// are DAGs, so the worklist drains completely).
	queue := []*algebra.Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		reqs := kidRequirements(n, live[n])
		for i, k := range n.Kids {
			l := live[k]
			if l == nil {
				l = colset{}
				live[k] = l
			}
			for c := range reqs[i] {
				l[c] = true
			}
			pending[k]--
			if pending[k] == 0 {
				queue = append(queue, k)
			}
		}
	}
	return live, parents
}

// kidRequirements returns, per child, the columns the operator needs from
// it to produce the given live output columns. Requirements mirror exactly
// what exec.go reads: δ and \ compare full rows, ϱ reads its sort and
// partition keys, µ feeds read iter|item, and so on.
func kidRequirements(n *algebra.Node, live colset) []colset {
	switch n.Op {
	case algebra.OpProject:
		req := colset{}
		for _, p := range n.Proj {
			if live[p.Out] {
				req[p.In] = true
			}
		}
		if len(req) == 0 && len(n.Proj) > 0 {
			req[n.Proj[0].In] = true // cardinality: never project to zero columns
		}
		return []colset{req}
	case algebra.OpAttach:
		req := live.clone()
		delete(req, n.Col)
		return []colset{req}
	case algebra.OpSelect:
		req := live.clone()
		req[n.Col] = true
		return []colset{req}
	case algebra.OpJoin, algebra.OpCross:
		lS, rS := toSet(n.Kids[0].Schema()), toSet(n.Kids[1].Schema())
		lreq, rreq := colset{}, colset{}
		for c := range live {
			if lS[c] {
				lreq[c] = true
			}
			if rS[c] {
				rreq[c] = true
			}
		}
		for _, p := range n.Preds {
			lreq[p.L] = true
			rreq[p.R] = true
		}
		return []colset{lreq, rreq}
	case algebra.OpSemiJoin, algebra.OpAntiJoin:
		lreq := live.clone()
		rreq := colset{}
		for _, p := range n.Preds {
			lreq[p.L] = true
			rreq[p.R] = true
		}
		return []colset{lreq, rreq}
	case algebra.OpDistinct:
		// δ deduplicates over the full row: every input column is load-
		// bearing (pruning one would merge rows that differ only there).
		return []colset{toSet(n.Kids[0].Schema())}
	case algebra.OpUnion:
		req := live.clone()
		if len(req) == 0 {
			req = toSet(n.Schema())
		}
		return []colset{req, req.clone()}
	case algebra.OpDiff:
		// Bag difference matches full rows on both sides.
		return []colset{toSet(n.Kids[0].Schema()), toSet(n.Kids[1].Schema())}
	case algebra.OpGroupCount:
		return []colset{toSet(n.GroupCols)}
	case algebra.OpNumOp:
		req := live.clone()
		delete(req, n.Col)
		for _, a := range n.NumArgs {
			req[a] = true
		}
		return []colset{req}
	case algebra.OpRowTag:
		req := live.clone()
		delete(req, n.Col)
		return []colset{req}
	case algebra.OpRowNum:
		req := live.clone()
		delete(req, n.Col)
		for _, c := range n.SortCols {
			req[c] = true
		}
		for _, c := range n.GroupCols {
			req[c] = true
		}
		return []colset{req}
	case algebra.OpStep:
		req := live.clone()
		req[n.ItemCol] = true
		return []colset{req}
	case algebra.OpIDLookup:
		req := live.clone()
		req[n.ItemCol] = true
		req[n.Col] = true
		return []colset{req}
	case algebra.OpCtor:
		return []colset{{"iter": true}, {"iter": true, "pos": true, "item": true}}
	case algebra.OpMu:
		// µ ingests seed and body through newIterSets, which reads exactly
		// iter and item: the per-round pos ranks are recomputed from
		// document order, so upstream pos machinery is dead through µ.
		return []colset{{"iter": true, "item": true}, {"iter": true, "item": true}}
	}
	// Leaves (lit, doc, recbase) have no children.
	reqs := make([]colset, len(n.Kids))
	for i, k := range n.Kids {
		reqs[i] = toSet(k.Schema())
	}
	return reqs
}

// rewriter applies one full rule pass over a plan DAG: liveness and
// properties are computed on the input tree, then every node is rewritten
// bottom-up exactly once (memoized, preserving sharing).
type rewriter struct {
	live    map[*algebra.Node]colset
	parents map[*algebra.Node]int
	an      *Analysis
	semi    map[*algebra.Node]bool // joins convertible under a δ∘π context
	memo    map[*algebra.Node]*algebra.Node
	// delta marks recursion bases whose step consumers may read the round's
	// delta feed (deltarules.go); recDeltas interns the one ∆ leaf per base.
	delta     map[*algebra.Node]bool
	recDeltas map[*algebra.Node]*algebra.Node
	changed   bool
}

func newRewriter(root *algebra.Node, delta map[*algebra.Node]bool) *rewriter {
	live, parents := liveness(root)
	r := &rewriter{
		live: live, parents: parents, an: Analyze(root),
		semi: map[*algebra.Node]bool{}, memo: map[*algebra.Node]*algebra.Node{},
		delta: delta, recDeltas: map[*algebra.Node]*algebra.Node{},
	}
	r.findSemiJoinContexts(root)
	return r
}

// findSemiJoinContexts marks joins that sit, unshared, under a full-row
// distinct through a projection keeping only left-side columns:
// δ(π_L(J ⋈ R)) ≡ δ(π_L(J ⋉ R)) — the duplicates a matching right row
// would multiply into the left rows are collapsed by δ anyway, so the join
// can skip materializing them. (The key-based conversion in joinRules
// needs no δ context but does need a keyed right side.)
func (r *rewriter) findSemiJoinContexts(root *algebra.Node) {
	seen := map[*algebra.Node]bool{}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == algebra.OpDistinct {
			if p := n.Kids[0]; p.Op == algebra.OpProject && r.parents[p] == 1 {
				if j := p.Kids[0]; j.Op == algebra.OpJoin && r.parents[j] == 1 &&
					schemasDisjoint(j) && insWithin(p.Proj, toSet(j.Kids[0].Schema())) {
					r.semi[j] = true
				}
			}
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
}

func schemasDisjoint(j *algebra.Node) bool {
	lS := toSet(j.Kids[0].Schema())
	for _, c := range j.Kids[1].Schema() {
		if lS[c] {
			return false
		}
	}
	return true
}

func insWithin(pairs []algebra.ProjPair, cols colset) bool {
	for _, p := range pairs {
		if !cols[p.In] {
			return false
		}
	}
	return true
}

// rewrite rebuilds the DAG under old with all rules applied, reusing
// unchanged nodes (pointer identity marks "nothing fired").
func (r *rewriter) rewrite(old *algebra.Node) *algebra.Node {
	if v, ok := r.memo[old]; ok {
		return v
	}
	var n *algebra.Node
	if old.Op == algebra.OpRecBase {
		n = old // the executor rebinds this leaf by identity: never clone it
	} else {
		kids := make([]*algebra.Node, len(old.Kids))
		same := true
		for i, k := range old.Kids {
			kids[i] = r.rewrite(k)
			if kids[i] != k {
				same = false
			}
		}
		n = old
		if !same {
			n = copyWithKids(old, kids)
		}
		n = r.rules(old, n)
	}
	r.memo[old] = n
	if n != old {
		r.changed = true
	}
	return n
}

// rules applies the local rewrites to n (the node with already-rewritten
// children); old is its pre-pass counterpart, the key into liveness and
// property maps.
func (r *rewriter) rules(old, n *algebra.Node) *algebra.Node {
	switch n.Op {
	case algebra.OpAttach, algebra.OpRowTag, algebra.OpNumOp, algebra.OpRowNum:
		// Dead column producers: these attach one derived column and keep
		// every input row in place, so when nothing reads the column the
		// operator (and for ϱ its sort) disappears entirely.
		if !r.live[old][n.Col] {
			return n.Kids[0]
		}
	case algebra.OpProject:
		return r.projectRules(old, n)
	case algebra.OpDistinct:
		// δ over a keyed input is the identity (and preserves row order).
		kid := n.Kids[0]
		if r.an.Props(old.Kids[0]).HasKeyWithin(toSet(kid.Schema())) {
			return kid
		}
	case algebra.OpSelect:
		return r.selectRules(old, n)
	case algebra.OpJoin:
		return r.joinRules(old, n)
	case algebra.OpSemiJoin:
		return r.semiJoinRules(old, n)
	case algebra.OpUnion:
		return alignUnion(n)
	case algebra.OpStep, algebra.OpIDLookup:
		return r.stepRules(n)
	}
	return n
}

func (r *rewriter) projectRules(old, n *algebra.Node) *algebra.Node {
	// Dead-column pruning: drop pairs no ancestor reads (keeping at least
	// one — a zero-column table would lose its row count).
	live := r.live[old]
	var pairs []algebra.ProjPair
	for _, p := range n.Proj {
		if live[p.Out] {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) == 0 {
		pairs = n.Proj[:1]
	}
	if len(pairs) != len(n.Proj) {
		n = &algebra.Node{Op: algebra.OpProject, Kids: n.Kids, Proj: pairs}
	}
	// π∘π collapsing: compose the rename maps into one projection.
	if kid := n.Kids[0]; kid.Op == algebra.OpProject {
		inOf := make(map[string]string, len(kid.Proj))
		for _, kp := range kid.Proj {
			inOf[kp.Out] = kp.In
		}
		composed := make([]algebra.ProjPair, len(n.Proj))
		for i, p := range n.Proj {
			composed[i] = algebra.ProjPair{Out: p.Out, In: inOf[p.In]}
		}
		n = &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{kid.Kids[0]}, Proj: composed}
	}
	// Identity elimination: a projection that reproduces its input schema
	// verbatim is a no-op.
	kidSchema := n.Kids[0].Schema()
	if len(n.Proj) == len(kidSchema) {
		id := true
		for i, p := range n.Proj {
			if p.Out != p.In || p.In != kidSchema[i] {
				id = false
				break
			}
		}
		if id {
			return n.Kids[0]
		}
	}
	return n
}

// selectRules pushes σ down through π, ∪ and ×. Pushdown only fires when
// the operator below is unshared: pushing through a shared node would
// duplicate its evaluation for this consumer while the original stays
// memoized for the others.
func (r *rewriter) selectRules(old, n *algebra.Node) *algebra.Node {
	kid := n.Kids[0]
	if r.parents[old.Kids[0]] != 1 {
		return n
	}
	switch kid.Op {
	case algebra.OpProject:
		for _, p := range kid.Proj {
			if p.Out == n.Col {
				inner := &algebra.Node{Op: algebra.OpSelect, Kids: []*algebra.Node{kid.Kids[0]}, Col: p.In}
				return &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{inner}, Proj: kid.Proj}
			}
		}
	case algebra.OpUnion:
		l := &algebra.Node{Op: algebra.OpSelect, Kids: []*algebra.Node{kid.Kids[0]}, Col: n.Col}
		rr := &algebra.Node{Op: algebra.OpSelect, Kids: []*algebra.Node{kid.Kids[1]}, Col: n.Col}
		return &algebra.Node{Op: algebra.OpUnion, Kids: []*algebra.Node{l, rr}}
	case algebra.OpCross:
		onL := kid.Kids[0].HasCol(n.Col)
		onR := kid.Kids[1].HasCol(n.Col)
		if onL != onR {
			side := 0
			if onR {
				side = 1
			}
			sel := &algebra.Node{Op: algebra.OpSelect, Kids: []*algebra.Node{kid.Kids[side]}, Col: n.Col}
			kids := []*algebra.Node{kid.Kids[0], kid.Kids[1]}
			kids[side] = sel
			return &algebra.Node{Op: algebra.OpCross, Kids: kids}
		}
	}
	return n
}

// joinRules reduces ⋈ to ⋉ when the right side contributes no live columns
// and either (a) the equality predicates cover a key of the right side —
// every probe row meets at most one build row, so the join's bag equals the
// semijoin's exactly — or (b) the join sits in a recorded δ∘π context.
func (r *rewriter) joinRules(old, n *algebra.Node) *algebra.Node {
	if r.semi[old] {
		return &algebra.Node{Op: algebra.OpSemiJoin, Kids: n.Kids, Preds: n.Preds}
	}
	if !schemasDisjoint(n) {
		return n
	}
	rS := toSet(n.Kids[1].Schema())
	for c := range r.live[old] {
		if rS[c] {
			return n
		}
	}
	var eqR []string
	for _, p := range n.Preds {
		if p.Cmp == algebra.NumEq {
			eqR = append(eqR, p.R)
		}
	}
	if len(eqR) == 0 || !r.an.Props(old.Kids[1]).HasKeyWithin(toSet(eqR)) {
		return n
	}
	return &algebra.Node{Op: algebra.OpSemiJoin, Kids: n.Kids, Preds: n.Preds}
}

// alignUnion restores the executor's ∪ invariant — the right input carries
// every left column — after per-branch pruning kept different extras
// (columns an operator needs internally, like join predicates, survive on
// one side only). The left side trims to the shared columns; extra right
// columns are ignored by the executor and need no trim.
func alignUnion(n *algebra.Node) *algebra.Node {
	l, rr := n.Kids[0], n.Kids[1]
	rs := toSet(rr.Schema())
	var pairs []algebra.ProjPair
	aligned := true
	for _, c := range l.Schema() {
		if rs[c] {
			pairs = append(pairs, algebra.ProjPair{Out: c, In: c})
		} else {
			aligned = false
		}
	}
	if aligned || len(pairs) == 0 {
		return n
	}
	trim := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{l}, Proj: pairs}
	return &algebra.Node{Op: algebra.OpUnion, Kids: []*algebra.Node{trim, rr}}
}

// copyWithKids clones a node with new children, copying every semantic
// field and leaving the schema cache to recompute.
func copyWithKids(n *algebra.Node, kids []*algebra.Node) *algebra.Node {
	return &algebra.Node{
		Op: n.Op, Kids: kids,
		LitCols: n.LitCols, Rows: n.Rows, URI: n.URI,
		Proj: n.Proj, Col: n.Col, Val: n.Val, Preds: n.Preds,
		GroupCols: n.GroupCols, SortCols: n.SortCols,
		Num: n.Num, NumArgs: n.NumArgs,
		Axis: n.Axis, Test: n.Test, ItemCol: n.ItemCol,
		ValEq: n.ValEq, ValEqSet: n.ValEqSet,
		Ctor: n.Ctor, CtorName: n.CtorName,
		Delta: n.Delta, RecBase: n.RecBase, Desc: n.Desc,
		Template: n.Template, Bookkeeping: n.Bookkeeping,
	}
}
