package xdm

import "slices"

// Family is the node-set family an inflationary fixed point accumulates:
// one node set per iteration of the enclosing loop, named by dense int32
// iteration ids that the caller assigns. §4.1's loop-lifted µ and µ∆ run
// every live iteration at once; the per-binding fixpoint of Figure 3 is the
// one-iteration case, iteration 0. Each iteration keeps its members in
// document order behind its own NodeSet screen, so absorbing a round costs
// O(|answer| + |new|), never a re-sort or re-dedup of what earlier rounds
// established.
//
// A family is filled in two ways. Add appends (iteration, item) pairs
// unscreened, duplicates and any order allowed: a batch, the shape one
// payload application produces. Absorb folds a batch into an accumulated
// family and returns ∆; absorbing a batch into an empty family therefore
// normalizes it.
//
// The zero value is an empty one-iteration family. Iteration 0 is stored
// inline, so a one-iteration family allocates no set slice.
type Family struct {
	first iterNodes   // iteration 0
	rest  []iterNodes // iterations 1, 2, …
	n     int
	delta *Family // ∆ of the last Absorb, its buffers reused across rounds
}

// iterNodes is one iteration's node set. Its screen is built on the second
// batch that brings it members: until then it is empty.
type iterNodes struct {
	seen  NodeSet   // exactly nodes, or empty
	nodes []NodeRef // document order once absorbed; batch order after Add
}

// Len is the family's (iteration, node) pair count over all iterations.
func (f *Family) Len() int { return f.n }

// Nodes returns iteration iter's members: in distinct document order for an
// absorbed family, as added for a batch. The slice is owned by f; callers
// must not modify it.
func (f *Family) Nodes(iter int32) []NodeRef {
	if iter == 0 {
		return f.first.nodes
	}
	if int(iter) > len(f.rest) {
		return nil
	}
	return f.rest[iter-1].nodes
}

func (f *Family) set(iter int32) *iterNodes {
	if iter == 0 {
		return &f.first
	}
	if n := int(iter); n > len(f.rest) {
		f.rest = append(f.rest, make([]iterNodes, n-len(f.rest))...)
	}
	return &f.rest[iter-1]
}

// Add appends the pair (iter, it) to the batch f. The fixed point ranges
// over node()* (Definition 2.1), so a non-node item is an XPTY0004 error
// and leaves f unchanged.
func (f *Family) Add(iter int32, it Item) error {
	if !it.IsNode() {
		return NewError(ErrType, "inflationary fixed point over a non-node item of type "+it.Kind().String())
	}
	s := f.set(iter)
	s.nodes = append(s.nodes, it.node)
	f.n++
	return nil
}

// AddNodes appends the pairs (iter, n) for every node n to the batch f.
func (f *Family) AddNodes(iter int32, nodes []NodeRef) {
	if len(nodes) == 0 {
		return
	}
	s := f.set(iter)
	s.nodes = append(s.nodes, nodes...)
	f.n += len(nodes)
}

// Reset empties f, keeping its buffers for the next batch.
func (f *Family) Reset() {
	f.first.reset()
	for i := range f.rest {
		f.rest[i].reset()
	}
	f.n = 0
}

func (s *iterNodes) reset() {
	s.nodes = s.nodes[:0]
	s.seen.Reset()
}

// Absorb folds the batch o into f in place and returns ∆ (the `except res`
// of algorithm Delta): per iteration, o's nodes not yet in f, deduplicated
// and in document order. ∆ is owned by f and valid until f's next Absorb;
// o is only read.
func (f *Family) Absorb(o *Family) *Family {
	if f.delta == nil {
		f.delta = new(Family)
	}
	d := f.delta
	d.Reset()
	for id := range int32(1 + len(o.rest)) {
		batch := o.Nodes(id)
		if len(batch) == 0 {
			continue
		}
		s, fresh := f.set(id), d.set(id)
		if len(s.nodes) == 0 {
			// First members need no screen: sorting drops duplicates.
			fresh.nodes = append(fresh.nodes, batch...)
			SortNodes(fresh.nodes)
			fresh.nodes = slices.Compact(fresh.nodes)
		} else {
			if s.seen.Len() == 0 {
				for _, n := range s.nodes {
					s.seen.Add(n)
				}
			}
			for _, n := range batch {
				if s.seen.Add(n) {
					fresh.nodes = append(fresh.nodes, n)
				}
			}
			if len(fresh.nodes) == 0 {
				continue
			}
			SortNodes(fresh.nodes)
		}
		s.nodes = mergeSortedNodes(s.nodes, fresh.nodes)
		f.n += len(fresh.nodes)
		d.n += len(fresh.nodes)
	}
	return d
}

// mergeSortedNodes merges two document-ordered runs with no common member
// into one document-ordered run. When every node of b falls after a's
// maximum (monotone discovery, the common case for preorder traversals)
// the merge degenerates to an append reusing a's spare capacity; a full
// merge allocates with headroom so repeated interleaving amortizes. The
// result may alias a's backing array; b is never aliased or modified.
func mergeSortedNodes(a, b []NodeRef) []NodeRef {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 || a[len(a)-1].Before(b[0]) {
		return append(a, b...)
	}
	out := make([]NodeRef, 0, 2*(len(a)+len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Before(b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
