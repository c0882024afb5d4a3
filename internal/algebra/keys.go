package algebra

import (
	"slices"

	"repro/internal/xdm"
)

// Every hash operator of the executor — δ, ∖, grouped count, ϱ's
// partitions, the constructor's iteration lookup and the joins — keys a row
// on a pair of words and probes one hashIndex. No key holds a pointer, so
// the index hashes plain memory. The words are derived once per column, as
// a []uint64 vector, and the derivation is chosen once per column group:
// every column whose keys must meet (both inputs of ∖, the two iteration
// columns of a constructor, the two sides of one join predicate) gets the
// same one, decided by what the columns hold.
//
// Identity keys (identityKeys) specialise xdm.KeyOf: the packed node words
// when every column of the group is packed, the int64 when every one holds
// only xs:integer, and otherwise a dense id interned from each value's
// KeyOf. A row of more than two columns folds its leading columns pairwise
// into one id, so every row key is one pair.
//
// Join keys (joinKeys) specialise xdm.EqKeys: the exact int64 when both
// sides hold only xs:integer, an interned string id when both hold only
// values that atomize to strings and untyped atomics, and otherwise EqKeys'
// own keys, each interned to an id. Only the last can be inexact.

// hashIndex maps a key pair to its first entry and chains the entries that
// share a key through next. An entry is a row number, or row·fan+slot on a
// join's build side, where one row may file under several keys; entries
// pushed in descending order leave every chain in ascending row order.
type hashIndex struct {
	first map[[2]uint64]int32
	next  []int32 // entry → the next entry under the same key, or noEntry
}

// noEntry ends a chain.
const noEntry = -1

// newHashIndex presizes an index for n keys; entries is the room chained
// entries need (0 when the index only claims).
func newHashIndex(n, entries int) hashIndex {
	x := hashIndex{first: make(map[[2]uint64]int32, n)}
	if entries > 0 {
		x.next = make([]int32, entries)
	}
	return x
}

// claim returns k's first entry, recording e as it when k is new.
func (x *hashIndex) claim(k [2]uint64, e int32) int32 {
	if f, ok := x.first[k]; ok {
		return f
	}
	x.first[k] = e
	return e
}

// push puts entry e at the front of k's chain.
func (x *hashIndex) push(k [2]uint64, e int32) {
	f, ok := x.first[k]
	if !ok {
		f = noEntry
	}
	x.next[e] = f
	x.first[k] = e
}

// lookup returns the first entry of k's chain, or noEntry.
func (x *hashIndex) lookup(k [2]uint64) int32 {
	if f, ok := x.first[k]; ok {
		return f
	}
	return noEntry
}

// chainMerge walks up to four index chains as one, in ascending entry
// order; a build row is on at most one of a probe row's chains.
type chainMerge struct {
	heads [4]int32
	n     int
}

func (m *chainMerge) add(e int32) {
	if e != noEntry {
		m.heads[m.n] = e
		m.n++
	}
}

// pop returns the least head and advances its chain through next.
func (m *chainMerge) pop(next []int32) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	least := 0
	for i := 1; i < m.n; i++ {
		if m.heads[i] < m.heads[least] {
			least = i
		}
	}
	e := m.heads[least]
	if m.heads[least] = next[e]; m.heads[least] == noEntry {
		m.n--
		m.heads[least] = m.heads[m.n]
	}
	return e, true
}

// ---- identity keys --------------------------------------------------------

// rowKeys is one input's identity key per row: the pair (a[r], b[r]). A nil
// vector reads as zeros, for rows of fewer than two columns.
type rowKeys struct{ a, b []uint64 }

func (k rowKeys) at(r int) (p [2]uint64) {
	if k.a != nil {
		p[0] = k.a[r]
	}
	if k.b != nil {
		p[1] = k.b[r]
	}
	return p
}

// identityKeys derives the identity keys of inputs whose columns align by
// position — column c of every input is one group — so two rows of any of
// the inputs get the same key exactly when their values are pairwise
// identical under xdm.KeyOf.
func identityKeys(inputs ...[]*Column) []rowKeys {
	keys := make([]rowKeys, len(inputs))
	width := len(inputs[0])
	if width == 0 {
		return keys
	}
	group := make([]*Column, len(inputs))
	words := func(c int) [][]uint64 {
		for i, in := range inputs {
			group[i] = in[c]
		}
		return identityWords(group)
	}
	lead := words(0)
	if width > 2 {
		total := 0
		for i := range lead {
			lead[i] = slices.Clone(lead[i]) // packed words are shared storage
			total += inputs[i][0].Len()
		}
		for c := 1; c < width-1; c++ {
			fold, e := newHashIndex(total, 0), int32(0)
			for i, w := range words(c) {
				for r, x := range w {
					lead[i][r] = uint64(fold.claim([2]uint64{lead[i][r], x}, e))
					e++
				}
			}
		}
	}
	var last [][]uint64
	if width > 1 {
		last = words(width - 1)
	}
	for i := range keys {
		keys[i].a = lead[i]
		if last != nil {
			keys[i].b = last[i]
		}
	}
	return keys
}

// identityWords derives one word per value for each column of a group.
func identityWords(group []*Column) [][]uint64 {
	out := make([][]uint64, len(group))
	switch {
	case allCols(group, (*Column).IsPacked):
		for i, c := range group {
			out[i] = c.packed
		}
	case allCols(group, (*Column).intOnly):
		for i, c := range group {
			out[i] = intWords(c)
		}
	default:
		ids := map[xdm.Key]uint64{}
		for i, c := range group {
			w := make([]uint64, c.Len())
			for r := range w {
				w[r] = internID(ids, c.key(r), true)
			}
			out[i] = w
		}
	}
	return out
}

func allCols(cols []*Column, pred func(*Column) bool) bool {
	for _, c := range cols {
		if !pred(c) {
			return false
		}
	}
	return true
}

// intWords is an integer-only column's values as words.
func intWords(c *Column) []uint64 {
	w := make([]uint64, len(c.items))
	for r, it := range c.items {
		w[r] = uint64(it.Int())
	}
	return w
}

// ---- join keys -------------------------------------------------------------

// eqVec is one side of an equality join predicate: stride key words per
// row. Words of an interned side are ids, and noKey fills a slot no key
// takes — a probe value the build side never holds, or a row with fewer
// keys than the stride.
type eqVec struct {
	w        []uint64
	stride   int
	interned bool
	inexact  []bool // rows whose keys need confirming; nil when none do
}

const noKey = ^uint64(0)

// joinKeys derives the keys of one equality predicate over the probe
// column l and the build column r. A build key meets a probe key exactly
// when xdm.GeneralCompareItems(=) holds for the two values, and then under
// exactly one key — except that an inexact row may meet a value it does
// not equal, so its pairs are confirmed.
func joinKeys(l, r *Column) (lv, rv eqVec) {
	switch {
	case l.intOnly() && r.intOnly():
		return eqVec{w: intWords(l), stride: 1}, eqVec{w: intWords(r), stride: 1}
	case l.textOnly() && r.textOnly():
		ids := make(map[string]uint64, r.Len())
		text := func(c *Column, build bool) eqVec {
			v := eqVec{w: make([]uint64, c.Len()), stride: 1, interned: true}
			rd := c.reader()
			for i := range v.w {
				v.w[i] = internID(ids, rd.item(i).StringValue(), build)
			}
			return v
		}
		rv = text(r, true) // the build side interns first
		return text(l, false), rv
	}
	ids := map[xdm.Key]uint64{}
	rv = eqKeyVec(r, ids, false) // the build side interns first
	return eqKeyVec(l, ids, true), rv
}

// eqKeyVec is xdm.EqKeys over a column, each key interned to an id; the
// build side (probe false) interns, a probe key it never saw is noKey.
func eqKeyVec(c *Column, ids map[xdm.Key]uint64, probe bool) eqVec {
	v := eqVec{w: make([]uint64, 2*c.Len()), stride: 2, interned: true}
	rd := c.reader()
	var keys [2]xdm.Key
	for r := 0; r < c.Len(); r++ {
		n, exact := xdm.EqKeys(&keys, rd.item(r), probe)
		if !exact {
			if v.inexact == nil {
				v.inexact = make([]bool, c.Len())
			}
			v.inexact[r] = true
		}
		for s := range 2 {
			v.w[2*r+s] = noKey
			if s < n {
				v.w[2*r+s] = internID(ids, keys[s], !probe)
			}
		}
	}
	return v
}

// internID returns k's dense id in ids, adding k when add is set; a key
// missing from ids is noKey otherwise.
func internID[K comparable](ids map[K]uint64, k K, add bool) uint64 {
	if id, ok := ids[k]; ok {
		return id
	}
	if !add {
		return noKey
	}
	id := uint64(len(ids))
	ids[k] = id
	return id
}

// keyPairs appends row r's key pairs over one or two predicates to dst, in
// slot order: a second predicate's key pairs with the first's, a single
// predicate's with zero. Combinations holding noKey file nowhere.
func keyPairs(dst [][2]uint64, vecs []eqVec, r int) [][2]uint64 {
	a := vecs[0]
	for _, x := range a.w[r*a.stride : (r+1)*a.stride] {
		if a.interned && x == noKey {
			continue
		}
		if len(vecs) == 1 {
			dst = append(dst, [2]uint64{x})
			continue
		}
		b := vecs[1]
		for _, y := range b.w[r*b.stride : (r+1)*b.stride] {
			if b.interned && y == noKey {
				continue
			}
			dst = append(dst, [2]uint64{x, y})
		}
	}
	return dst
}

// rowInexact reports whether any of row r's keys over vecs is inexact.
func rowInexact(vecs []eqVec, r int) bool {
	for _, v := range vecs {
		if v.inexact != nil && v.inexact[r] {
			return true
		}
	}
	return false
}
