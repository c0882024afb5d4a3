package algebra

import (
	"cmp"
	"fmt"

	"repro/internal/xdm"
)

// Column is one attribute vector of a Table. Storage is type-tagged: a
// column holding only nodes packs each value into the (doc-stamp, pre)
// uint64 identity word of xdm.NodeWord — 8 bytes per value, and exactly the
// xdm.Key that dedup and fixpoint accumulation consume, so key extraction
// from a packed column is a plain slice read. Everything else (and any
// column that ever held a non-node) stores full xdm.Items. Columns are
// immutable once built; tables alias them freely (projection and rename
// are pointer copies), which is why every constructor hands out fresh
// backing slices.
type Column struct {
	// packed holds xdm.NodeWord identities when the column is node-only;
	// docs maps the stamp half back to the document. items is the generic
	// fallback. Exactly one of packed/items is non-nil for non-empty
	// columns; an empty column has both nil and counts as packed.
	packed []uint64
	docs   *docDict
	items  []xdm.Item
}

// Len returns the number of values.
func (c *Column) Len() int {
	if c.items != nil {
		return len(c.items)
	}
	return len(c.packed)
}

// IsPacked reports whether the column stores packed node identities.
// Empty columns count as packed (the packed representation of no rows).
func (c *Column) IsPacked() bool { return c.items == nil }

// Packed exposes the packed identity vector (nil for generic columns).
// Callers must not mutate it.
func (c *Column) Packed() []uint64 { return c.packed }

// Item materializes value i. Packed columns rebuild the NodeRef through
// the doc dictionary; loops that read many values should prefer a reader
// (which caches the last document) or, for node-only access, Node.
func (c *Column) Item(i int) xdm.Item {
	if c.items != nil {
		return c.items[i]
	}
	return xdm.NewNode(c.docs.unpack(c.packed[i]))
}

// Node returns value i as a node reference; valid only when IsNodeAt(i).
func (c *Column) Node(i int) xdm.NodeRef {
	if c.items != nil {
		return c.items[i].Node()
	}
	return c.docs.unpack(c.packed[i])
}

// IsNodeAt reports whether value i is a node.
func (c *Column) IsNodeAt(i int) bool {
	if c.items != nil {
		return c.items[i].IsNode()
	}
	return true
}

// key returns value i's exact identity; a packed word is its own key.
func (c *Column) key(i int) xdm.Key {
	if c.items != nil {
		return xdm.KeyOf(c.items[i])
	}
	return xdm.NodeKey(c.packed[i])
}

// intOnly reports whether every value is an xs:integer (an empty column
// holds none that is not).
func (c *Column) intOnly() bool {
	if len(c.packed) > 0 {
		return false
	}
	for _, it := range c.items {
		if it.Kind() != xdm.KInteger {
			return false
		}
	}
	return true
}

// textOnly reports whether every value atomizes to an xs:string or an
// xs:untypedAtomic: strings, untyped atomics and nodes.
func (c *Column) textOnly() bool {
	for _, it := range c.items {
		if k := it.Kind(); k != xdm.KString && k != xdm.KUntyped && k != xdm.KNode {
			return false
		}
	}
	return true
}

// compareAt orders values a and b by xdm.CompareOrder. A packed column
// compares its identity words: NodeWord puts the document stamp above the
// preorder rank, so word order is document order.
func (c *Column) compareAt(a, b int) int {
	if c.items != nil {
		return xdm.CompareOrder(c.items[a], c.items[b])
	}
	return cmp.Compare(c.packed[a], c.packed[b])
}

// reader iterates one column with a per-loop document cache, so unpacking
// runs of same-document nodes costs one map lookup per run, not per row.
// A reader is single-goroutine state.
type reader struct {
	col  *Column
	last uint64 // last stamp (high half) resolved, 0 = none
	doc  *xdm.Document
}

func (c *Column) reader() reader { return reader{col: c} }

func (r *reader) item(i int) xdm.Item {
	if r.col.items != nil {
		return r.col.items[i]
	}
	return xdm.NewNode(r.node(i))
}

// node unpacks value i; valid only for packed columns or node items.
func (r *reader) node(i int) xdm.NodeRef {
	if r.col.items != nil {
		return r.col.items[i].Node()
	}
	k := r.col.packed[i]
	if s := k &^ uint64(1<<32-1); s != r.last || r.doc == nil {
		r.last = s
		r.doc = r.col.docs.doc(uint32(k >> 32))
	}
	return xdm.NodeRef{D: r.doc, Pre: int32(uint32(k))}
}

// docDict maps the stamp half of packed identities back to documents.
// It is append-only while exactly one builder owns it and strictly
// read-only once any column references it — builders seeded with a shared
// dictionary clone before growing, so no column ever observes a mutation.
type docDict struct {
	m map[uint32]*xdm.Document
}

func newDocDict() *docDict { return &docDict{m: map[uint32]*xdm.Document{}} }

func (d *docDict) doc(stamp uint32) *xdm.Document {
	doc, ok := d.m[stamp]
	if !ok {
		panic(fmt.Sprintf("algebra: packed column references unknown document stamp %d", stamp))
	}
	return doc
}

func (d *docDict) unpack(k uint64) xdm.NodeRef {
	return xdm.NodeRef{D: d.doc(uint32(k >> 32)), Pre: int32(uint32(k))}
}

// has reports whether the document is already interned.
func (d *docDict) has(doc *xdm.Document) bool {
	_, ok := d.m[uint32(doc.Stamp())]
	return ok
}

func (d *docDict) intern(doc *xdm.Document) {
	d.m[uint32(doc.Stamp())] = doc
}

// maxPackedDocs bounds the dictionary size a builder will grow before
// degrading to generic storage: packing is a win when many nodes share few
// documents (steps, fixpoint feeds), and a loss for constructor output,
// where every row mints a fresh single-node document and the dictionary
// would grow one entry per row.
const maxPackedDocs = 64

// colBuilder accumulates one output column, packing optimistically: it
// stays packed while every appended value is a node over a bounded set of
// documents and degrades to generic items on the first non-node (or when
// the document set blows past maxPackedDocs).
type colBuilder struct {
	packed  []uint64
	items   []xdm.Item
	dict    *docDict
	lastDoc *xdm.Document // builder-local intern fast path
	hint    int           // expected value count; backing allocated lazily
	generic bool
}

// newColBuilder sizes the builder for about n values. No backing vector is
// allocated until the first append decides packed vs generic, so a column
// that turns out generic never pays for a discarded packed vector.
func newColBuilder(n int) *colBuilder {
	return &colBuilder{hint: n}
}

func (b *colBuilder) len() int {
	if b.generic {
		return len(b.items)
	}
	return len(b.packed)
}

// degrade materializes the packed prefix as items and switches the builder
// to generic storage.
func (b *colBuilder) degrade() {
	if b.generic {
		return
	}
	n := len(b.packed)
	if n < b.hint {
		n = b.hint
	}
	items := make([]xdm.Item, len(b.packed), n)
	for i, k := range b.packed {
		items[i] = xdm.NewNode(b.dict.unpack(k))
	}
	b.items = items
	b.packed = nil
	b.generic = true
}

func (b *colBuilder) appendNode(n xdm.NodeRef) {
	if b.generic {
		b.items = append(b.items, xdm.NewNode(n))
		return
	}
	if b.packed == nil && b.hint > 0 {
		b.packed = make([]uint64, 0, b.hint)
	}
	if b.dict == nil {
		b.dict = newDocDict()
	}
	if b.lastDoc != n.D && !b.dict.has(n.D) {
		if len(b.dict.m) >= maxPackedDocs {
			b.degrade()
			b.items = append(b.items, xdm.NewNode(n))
			return
		}
		b.dict.intern(n.D)
	}
	b.lastDoc = n.D
	b.packed = append(b.packed, xdm.NodeWord(n))
}

func (b *colBuilder) append(it xdm.Item) {
	if !b.generic && it.IsNode() {
		b.appendNode(it.Node())
		return
	}
	if !b.generic {
		b.degrade()
	}
	b.items = append(b.items, it)
}

func (b *colBuilder) finish() *Column {
	if b.generic {
		return &Column{items: b.items}
	}
	if len(b.packed) == 0 {
		return &Column{}
	}
	return &Column{packed: b.packed, docs: b.dict}
}

// genericColumn wraps an item slice (caller transfers ownership).
func genericColumn(items []xdm.Item) *Column {
	if len(items) == 0 {
		return &Column{}
	}
	return &Column{items: items}
}

// columnFromItems builds a column from values, packing node-only runs.
func columnFromItems(items []xdm.Item) *Column {
	b := newColBuilder(len(items))
	for _, it := range items {
		b.append(it)
	}
	return b.finish()
}

// repeatColumn is the constant column: n copies of one value (attach).
func repeatColumn(it xdm.Item, n int) *Column {
	if n == 0 {
		return &Column{}
	}
	if it.IsNode() {
		d := newDocDict()
		d.intern(it.Node().D)
		k := xdm.NodeWord(it.Node())
		packed := make([]uint64, n)
		for i := range packed {
			packed[i] = k
		}
		return &Column{packed: packed, docs: d}
	}
	items := make([]xdm.Item, n)
	for i := range items {
		items[i] = it
	}
	return &Column{items: items}
}

// intRangeColumn is the 1..n integer column (row tagging).
func intRangeColumn(n int) *Column {
	items := make([]xdm.Item, n)
	for i := range items {
		items[i] = xdm.NewInteger(int64(i + 1))
	}
	return genericColumn(items)
}

// gather builds the column of c's values at the given row indices. Packed
// sources stay packed and share the dictionary (a gather never introduces
// a new document), so gathering node columns is a pure uint64 copy.
func (c *Column) gather(idx []int32) *Column {
	if len(idx) == 0 {
		return &Column{}
	}
	if c.items == nil {
		packed := make([]uint64, len(idx))
		for i, r := range idx {
			packed[i] = c.packed[r]
		}
		return &Column{packed: packed, docs: c.docs}
	}
	items := make([]xdm.Item, len(idx))
	for i, r := range idx {
		items[i] = c.items[r]
	}
	return &Column{items: items}
}

// expandRuns replicates value i counts[i] times, in order — the run-length
// twin of gather used by the segment-sharing step path, where one context
// row fans out into len(segment) result rows. total is the known output
// length (the sum of counts). Packed sources stay packed and share the
// dictionary, exactly like gather.
func (c *Column) expandRuns(counts []int32, total int) *Column {
	if total == 0 {
		return &Column{}
	}
	if c.items == nil {
		out := make([]uint64, 0, total)
		for i, k := range c.packed {
			for j := int32(0); j < counts[i]; j++ {
				out = append(out, k)
			}
		}
		return &Column{packed: out, docs: c.docs}
	}
	out := make([]xdm.Item, 0, total)
	for i, it := range c.items {
		for j := int32(0); j < counts[i]; j++ {
			out = append(out, it)
		}
	}
	return &Column{items: out}
}

// concatColumns concatenates column chunks into one column. All-packed
// inputs stay packed (dictionaries merge, or share when there is only one
// distinct dictionary); any generic chunk degrades the result.
func concatColumns(chunks []*Column) *Column {
	total, packed := 0, true
	var dict *docDict
	oneDict := true
	for _, c := range chunks {
		total += c.Len()
		if c.Len() == 0 {
			continue
		}
		if !c.IsPacked() {
			packed = false
			continue
		}
		if dict == nil {
			dict = c.docs
		} else if c.docs != dict {
			oneDict = false
		}
	}
	if total == 0 {
		return &Column{}
	}
	if packed {
		out := make([]uint64, 0, total)
		for _, c := range chunks {
			out = append(out, c.packed...)
		}
		if !oneDict {
			merged := newDocDict()
			for _, c := range chunks {
				if c.docs == nil {
					continue
				}
				for s, doc := range c.docs.m {
					merged.m[s] = doc
				}
			}
			dict = merged
		}
		return &Column{packed: out, docs: dict}
	}
	items := make([]xdm.Item, 0, total)
	for _, c := range chunks {
		if c.items != nil {
			items = append(items, c.items...)
			continue
		}
		r := c.reader()
		for i := 0; i < c.Len(); i++ {
			items = append(items, r.item(i))
		}
	}
	return &Column{items: items}
}

// packedNodeColumn builds a node column from refs, degrading past the
// dictionary bound exactly like a builder would.
func packedNodeColumn(nodes []xdm.NodeRef) *Column {
	b := newColBuilder(len(nodes))
	for _, n := range nodes {
		b.appendNode(n)
	}
	return b.finish()
}
