package xdm

import (
	"math/bits"
	"slices"
)

// Family is the node-set family an inflationary fixed point accumulates:
// one node set per iteration of the enclosing loop, named by dense int32
// iteration ids that the caller assigns. §4.1's loop-lifted µ and µ∆ run
// every live iteration at once; the per-binding fixpoint of Figure 3 is the
// one-iteration case, iteration 0.
//
// A family is filled in two ways. Add appends (iteration, item) pairs
// unscreened, duplicates and any order allowed: a batch, the shape one
// payload application produces, which Nodes returns as added. Absorb folds
// a batch into an accumulated family and returns ∆ in document order;
// absorbing a batch into an empty family therefore normalizes it.
//
// An accumulated iteration is an append-only log of its members behind
// its own NodeSet screen: each Absorb appends the round's fresh nodes as
// one document-ordered run, so absorbing a round costs O(|answer| + |new|),
// never a re-sort or re-merge of what earlier rounds established. The log
// is put in document order only when Nodes reads it, in one of two ways.
// When the screen holds the whole log in one document's dense-tier bitmap,
// and the bitmap is small against the log, the read lists the set bits.
// Otherwise the runs absorbed since the last read are sorted and merged
// with the ordered prefix in one linear pass. Either way the output goes
// to a spare buffer the iteration keeps. Under Delta nobody reads res
// until the execution ends, so it is ordered once; Naïve reads it every
// round and pays one read a round.
//
// Both the bitmap read and the run sort rest on §4's pre/size/level
// encoding: within one document a preorder rank is document order, so a
// one-document run sorts its ranks as plain words in a scratch buffer the
// family keeps; only a run that spans documents falls back to a
// comparator sort (sortNodes).
//
// Reset empties a family but keeps every buffer: logs, spare buffers,
// screens and their bitmaps, the sort scratch and ∆. A family reused for
// the next batch, or for the next execution of a fixpoint site (core keeps
// a free list per site), allocates nothing once its buffers have grown.
//
// A slice returned by Nodes stays valid until the family's next Absorb or
// Reset. Nodes orders the log in place, so a Family is not safe for
// concurrent readers.
//
// The zero value is an empty one-iteration family. Iteration 0 is stored
// inline, so a one-iteration family allocates no set slice.
type Family struct {
	first iterNodes   // iteration 0
	rest  []iterNodes // iterations 1, 2, …
	n     int
	delta *Family // ∆ of the last Absorb, its buffers reused across rounds
	sort  sortScratch
}

// iterNodes is one iteration's node set. Its screen is built on the second
// batch that brings it members: until then it is empty.
type iterNodes struct {
	seen NodeSet // exactly nodes, or empty
	// nodes[:sorted] is in the order Nodes returns: document order once
	// absorbed, batch order after Add. nodes[sorted:] holds the
	// document-ordered runs absorbed since the last read.
	nodes  []NodeRef
	sorted int
	spare  []NodeRef // the buffer the next read writes, then swaps with nodes
}

// Len is the family's (iteration, node) pair count over all iterations.
func (f *Family) Len() int { return f.n }

// Iters bounds the iteration ids f holds members in: every such id is
// below it, though some below it may be empty.
func (f *Family) Iters() int32 { return int32(1 + len(f.rest)) }

// Nodes returns iteration iter's members: in distinct document order for an
// absorbed family, as added for a batch. The slice is owned by f and valid
// until f's next Absorb or Reset; callers must not modify it.
func (f *Family) Nodes(iter int32) []NodeRef {
	s := f.get(iter)
	if s == nil {
		return nil
	}
	if s.sorted < len(s.nodes) {
		s.order(&f.sort)
	}
	return s.nodes
}

// get returns iteration iter's set, or nil if no member ever reached it.
func (f *Family) get(iter int32) *iterNodes {
	if iter == 0 {
		return &f.first
	}
	if int(iter) > len(f.rest) {
		return nil
	}
	return &f.rest[iter-1]
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
	s.sorted = len(s.nodes)
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
	s.sorted = len(s.nodes)
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
	s.sorted = 0
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
		batch := o.get(id).nodes
		if len(batch) == 0 {
			continue
		}
		s, fresh := f.set(id), d.set(id)
		if len(s.nodes) == 0 {
			// First members need no screen: sorting drops duplicates.
			fresh.nodes = f.sort.run(append(fresh.nodes, batch...))
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
			fresh.nodes = f.sort.run(fresh.nodes)
		}
		fresh.sorted = len(fresh.nodes)
		s.log(fresh.nodes)
		f.n += len(fresh.nodes)
		d.n += len(fresh.nodes)
	}
	return d
}

// log appends a document-ordered run of new members. When nothing awaits
// ordering and the run falls after the last member (monotone discovery,
// the common case for preorder traversals), the ordered prefix extends
// over it.
func (s *iterNodes) log(run []NodeRef) {
	extends := s.sorted == len(s.nodes) && (s.sorted == 0 || s.nodes[s.sorted-1].Before(run[0]))
	s.nodes = append(s.nodes, run...)
	if extends {
		s.sorted = len(s.nodes)
	}
}

// order puts the log in document order: it lists the screen's bitmap when
// listable allows, and otherwise sorts the runs absorbed since the last
// read and merges them with the ordered prefix, which they share no member
// with.
func (s *iterNodes) order(sc *sortScratch) {
	if d, bitmap := s.listable(); bitmap != nil {
		s.readBits(d, bitmap)
	} else {
		s.merge(sc)
	}
}

// listable returns the screen's bitmap and its document when the screen
// holds the whole log in one document's dense tier and the bitmap is at
// most denseReadRatio words per member; otherwise it returns nil.
func (s *iterNodes) listable() (*Document, []uint64) {
	if s.seen.Len() != len(s.nodes) {
		return nil, nil
	}
	d, bitmap := s.seen.dense()
	if len(bitmap) > denseReadRatio*len(s.nodes) {
		return nil, nil
	}
	return d, bitmap
}

// denseReadRatio bounds the bitmap words per member at which a read lists
// the bitmap's set bits rather than sorting and merging: a listing scans
// every word, so a bitmap far larger than the log would cost more than the
// sort it replaces.
const denseReadRatio = 4

// readBits replaces the log with the members listed off the bitmap of
// their one document d, in preorder: word w holds ranks w·64 … w·64+63.
func (s *iterNodes) readBits(d *Document, bitmap []uint64) {
	out := s.spareFor(len(s.nodes))
	for w, word := range bitmap {
		for word != 0 {
			out = append(out, NodeRef{D: d, Pre: int32(w)<<6 + int32(bits.TrailingZeros64(word))})
			word &= word - 1
		}
	}
	s.spare, s.nodes = s.nodes[:0], out
	s.sorted = len(out)
}

// merge sorts the runs absorbed since the last read, then merges them with
// the ordered prefix into the spare buffer and swaps the two.
func (s *iterNodes) merge(sc *sortScratch) {
	head := s.nodes[:s.sorted]
	tail := sc.run(s.nodes[s.sorted:]) // distinct: sorting drops nothing
	if len(head) == 0 || head[len(head)-1].Before(tail[0]) {
		s.sorted = len(s.nodes)
		return
	}
	out := s.spareFor(len(s.nodes))
	i, j := 0, 0
	for i < len(head) && j < len(tail) {
		if head[i].Before(tail[j]) {
			out = append(out, head[i])
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	out = append(out, head[i:]...)
	out = append(out, tail[j:]...)
	s.spare, s.nodes = s.nodes[:0], out
	s.sorted = len(out)
}

// spareFor returns the empty spare buffer with room for n members.
func (s *iterNodes) spareFor(n int) []NodeRef {
	if cap(s.spare) < n {
		return make([]NodeRef, 0, cap(s.nodes))
	}
	return s.spare[:0]
}

// sortScratch is the rank-word buffer a family sorts runs in.
type sortScratch struct {
	pres []int32
}

// run puts ns in distinct document order in place and returns it,
// shortened by the duplicates it dropped.
func (sc *sortScratch) run(ns []NodeRef) []NodeRef {
	sc.pres = sortNodes(ns, sc.pres)
	return slices.Compact(ns)
}
