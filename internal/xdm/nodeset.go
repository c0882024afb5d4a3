package xdm

// NodeSet is a node-identity membership set with a two-tier representation
// per document. Sparse sets live in a small preorder-rank hash set, so a
// family of many NodeSets over a huge document (the relational µ keeps one
// per live iteration) costs memory proportional to actual membership. Once
// a document's member count crosses a density threshold, that document's
// entries upgrade to a bitmap sized by Document.Len() — the pre/size/level
// arenas are immutable and densely numbered, making the preorder rank a
// perfect hash — and membership tests become a word index.
//
// The zero value is ready to use.
type NodeSet struct {
	docs map[*Document]*docSet
	n    int
}

type docSet struct {
	small map[int32]struct{} // sparse tier; nil once upgraded
	bits  []uint64           // dense tier; nil while sparse
	n     int                // members in this document
}

// retainDocs bounds the documents a Reset keeps the sets of when they have
// no members: a set reused across fixpoint executions that meet a fresh
// constructed fragment each time would otherwise grow a docSet per fragment.
const retainDocs = 4

// smallDocBits bounds the documents that go straight to the dense tier:
// up to 4096 nodes the full bitmap is at most 512 bytes — cheaper than
// any hash set — so only genuinely large documents start sparse.
const smallDocBits = 4096

func newDocSet(d *Document) *docSet {
	if d.Len() <= smallDocBits {
		return &docSet{bits: make([]uint64, (d.Len()+63)/64)}
	}
	return &docSet{small: make(map[int32]struct{}, 8)}
}

// densifyAt returns the member count at which a large document's sparse
// set upgrades to its bitmap: the point where the bitmap (Len/8 bytes)
// stops being larger than the hash set (~48 bytes per entry).
func densifyAt(d *Document) int {
	return d.Len() / 48
}

// Len reports the number of member nodes.
func (s *NodeSet) Len() int { return s.n }

// Has reports membership of the node identity.
func (s *NodeSet) Has(n NodeRef) bool {
	ds, ok := s.docs[n.D]
	if !ok {
		return false
	}
	if ds.bits != nil {
		return ds.bits[uint32(n.Pre)>>6]&(1<<(uint32(n.Pre)&63)) != 0
	}
	_, in := ds.small[n.Pre]
	return in
}

// Add inserts the node identity, reporting whether it was new.
func (s *NodeSet) Add(n NodeRef) bool {
	ds, ok := s.docs[n.D]
	if !ok {
		if s.docs == nil {
			s.docs = make(map[*Document]*docSet, 2)
		}
		ds = newDocSet(n.D)
		s.docs[n.D] = ds
	}
	if ds.bits != nil {
		word, mask := uint32(n.Pre)>>6, uint64(1)<<(uint32(n.Pre)&63)
		if ds.bits[word]&mask != 0 {
			return false
		}
		ds.bits[word] |= mask
		ds.n++
		s.n++
		return true
	}
	if _, dup := ds.small[n.Pre]; dup {
		return false
	}
	ds.small[n.Pre] = struct{}{}
	ds.n++
	s.n++
	if len(ds.small) >= densifyAt(n.D) {
		bits := make([]uint64, (n.D.Len()+63)/64)
		for pre := range ds.small {
			bits[uint32(pre)>>6] |= 1 << (uint32(pre) & 63)
		}
		ds.bits = bits
		ds.small = nil
	}
	return true
}

// dense returns the bitmap of the one document that holds every member,
// when that document's set is in the dense tier: bit p of the bitmap is
// the member of preorder rank p, so reading the set bits in order lists
// the members in document order. It returns nil otherwise.
func (s *NodeSet) dense() (*Document, []uint64) {
	if s.n == 0 {
		return nil, nil
	}
	for d, ds := range s.docs {
		if ds.n == s.n {
			return d, ds.bits
		}
	}
	return nil, nil
}

// Reset empties the set, retaining the documents' sets, upgraded bitmaps
// included, for reuse. Past retainDocs documents it drops the sets that
// had no members since the last Reset.
func (s *NodeSet) Reset() {
	for d, ds := range s.docs {
		if ds.n == 0 { // already empty
			if len(s.docs) > retainDocs {
				delete(s.docs, d)
			}
			continue
		}
		ds.n = 0
		if ds.bits != nil {
			clear(ds.bits)
		}
		if ds.small != nil {
			clear(ds.small)
		}
	}
	s.n = 0
}
