package xdm

import "math"

// Arena field layout
// ------------------
//
// A Document is a node table in document (preorder) rank, stored as
// fixed-width columns — the same vectors, in the same encoding, as the
// `.xqs` snapshot's node sections (internal/store), so an opened snapshot
// keeps them as views into its file bytes and a snapshot writer emits them
// as they are:
//
//   - URI          the document URI (fn:document-uri)
//   - kinds        []NodeKind  node kind (document/element/attribute/text/comment/PI)
//   - parents      []int32     preorder rank of the parent, -1 at the document node
//   - sizes        []int32     arena slots occupied by the subtree, excluding self
//   - levels       []int32     depth (document node is level 0)
//   - nameIDs      []uint32    index into names: element/attribute name, PI
//                              target; id 0 is the empty name
//   - names        []string    the interned name table
//   - valueEnds    []uint64    cumulative end offsets into values: node i's
//                              content is values[valueEnds[i-1]:valueEnds[i]]
//                              (attribute value, text/comment/PI content;
//                              empty for documents and elements)
//   - values       string      every node's content, concatenated in preorder
//   - ids          ID attribute value -> element preorder rank (fn:id)
//
// The stamp is deliberately NOT part of the persistent image: it orders
// documents within one process and is reassigned on load so that node
// identity and `<<` stay consistent with documents created live.

// arenaNodeBytes is the width of one node across the fixed-width columns:
// a kind byte, four 4-byte columns and an 8-byte value end.
const arenaNodeBytes = 1 + 4*4 + 8

// DocStats summarizes a document's arena, for cache byte accounting and
// monitoring endpoints. ArenaBytes is exact for the node table: the
// fixed-width columns, the value blob, the name table's bytes and each ID
// value with its 4-byte target. A snapshot opened from a file holds these
// as views into the file bytes, which also carry the index sections.
type DocStats struct {
	Nodes      int   // arena slots, including the document node and attributes
	Elements   int   // element nodes
	Attributes int   // attribute nodes
	Texts      int   // text nodes
	IDs        int   // registered ID attribute values
	ArenaBytes int64 // bytes of the node table (see above)
}

// Stats computes the document's DocStats, memoized on the document (it
// is immutable once built, so the first computation is definitive).
func (d *Document) Stats() DocStats {
	d.statsOnce.Do(func() {
		s := DocStats{Nodes: len(d.kinds), IDs: len(d.ids)}
		for _, k := range d.kinds {
			switch k {
			case ElementNode:
				s.Elements++
			case AttributeNode:
				s.Attributes++
			case TextNode:
				s.Texts++
			}
		}
		bytes := int64(len(d.kinds))*arenaNodeBytes + int64(len(d.values))
		for _, name := range d.names {
			bytes += int64(len(name))
		}
		for id := range d.ids {
			bytes += int64(len(id)) + 4
		}
		s.ArenaBytes = bytes
		d.stats = s
	})
	return d.stats
}

// Columns is a document's node table in the layout above, one entry per
// node in preorder (Names and Values excepted). The slices are shared
// with the document and must not be modified.
type Columns struct {
	Kinds     []NodeKind
	Parents   []int32
	Sizes     []int32
	Levels    []int32
	NameIDs   []uint32
	Names     []string
	ValueEnds []uint64
	Values    string
}

// Columns returns the document's node table — the export half of the
// snapshot API.
func (d *Document) Columns() Columns {
	return Columns{
		Kinds: d.kinds, Parents: d.parents, Sizes: d.sizes, Levels: d.levels,
		NameIDs: d.nameIDs, Names: d.names, ValueEnds: d.valueEnds, Values: d.values,
	}
}

// VisitIDs calls visit for every registered ID attribute value. Order is
// unspecified (map order).
func (d *Document) VisitIDs(visit func(id string, pre int32)) {
	for id, pre := range d.ids {
		visit(id, pre)
	}
}

// NewDocument builds a document over a captured node table — the import
// half of the snapshot API. The document keeps the columns as given (no
// per-node copy), takes ownership of ids, and carries ix, when non-nil,
// as its name/path index; it gets a fresh stamp.
//
// The table is validated first, since every accessor indexes the columns
// without further checks: all columns have one entry per node; kinds are
// known; name ids are in the name table, whose id 0 is the empty name;
// value ends never decrease nor pass the blob; node 0 is the document
// node spanning the whole arena at level 0; every other node's parent
// precedes it, contains its subtree and sits one level up; and every ID
// maps to an element. That bounds every walk the accessors make: parent
// links strictly descend and subtree windows stay inside their parent's.
func NewDocument(uri string, c Columns, ids map[string]int32, ix *Index) (*Document, error) {
	n := len(c.Kinds)
	if n == 0 {
		return nil, Errorf(ErrDoc, "arena: empty node table")
	}
	if n > math.MaxInt32 {
		return nil, Errorf(ErrDoc, "arena: %d nodes exceed the int32 rank range", n)
	}
	if len(c.Parents) != n || len(c.Sizes) != n || len(c.Levels) != n ||
		len(c.NameIDs) != n || len(c.ValueEnds) != n {
		return nil, Errorf(ErrDoc, "arena: column lengths differ from %d nodes", n)
	}
	if len(c.Names) == 0 || c.Names[0] != "" {
		return nil, Errorf(ErrDoc, "arena: name table does not start with the empty name")
	}
	kinds, parents, sizes, levels := c.Kinds, c.Parents, c.Sizes, c.Levels
	nameIDs, valueEnds := c.NameIDs, c.ValueEnds
	names, blob, last := uint32(len(c.Names)), uint64(len(c.Values)), int32(n-1)
	if kinds[0] != DocumentNode || parents[0] != -1 || sizes[0] != last || levels[0] != 0 ||
		nameIDs[0] >= names || valueEnds[0] > blob {
		return nil, Errorf(ErrDoc, "arena: node 0 is not a document node spanning %d nodes", last)
	}
	prevEnd := valueEnds[0]
	for i := int32(1); i <= last; i++ {
		if kinds[i] > PINode {
			return nil, Errorf(ErrDoc, "arena: node %d has unknown kind %d", i, kinds[i])
		}
		if nameIDs[i] >= names {
			return nil, Errorf(ErrDoc, "arena: node %d references unknown name id %d", i, nameIDs[i])
		}
		end := valueEnds[i]
		if end < prevEnd || end > blob {
			return nil, Errorf(ErrDoc, "arena: value offsets corrupt at node %d", i)
		}
		prevEnd = end
		p, size := parents[i], sizes[i]
		if p < 0 || p >= i {
			return nil, Errorf(ErrDoc, "arena: node %d parent %d out of range", i, p)
		}
		if size < 0 || size > last-i {
			return nil, Errorf(ErrDoc, "arena: node %d size %d exceeds arena", i, size)
		}
		if i+size > p+sizes[p] {
			return nil, Errorf(ErrDoc, "arena: node %d subtree escapes parent %d", i, p)
		}
		if levels[i] != levels[p]+1 {
			return nil, Errorf(ErrDoc, "arena: node %d level %d under parent level %d", i, levels[i], levels[p])
		}
	}
	for id, pre := range ids {
		if pre <= 0 || pre > last || kinds[pre] != ElementNode {
			return nil, Errorf(ErrDoc, "arena: ID %q maps to non-element node %d", id, pre)
		}
	}
	d := &Document{
		URI: uri, stamp: nextStamp(),
		kinds: kinds, parents: parents, sizes: sizes, levels: levels,
		nameIDs: nameIDs, names: c.Names, valueEnds: valueEnds, values: c.Values,
		ids: ids,
	}
	if len(c.Names) > smallNames {
		d.nameIx = make(map[string]uint32, len(c.Names))
		for i, name := range c.Names {
			if _, dup := d.nameIx[name]; !dup {
				d.nameIx[name] = uint32(i)
			}
		}
	}
	if ix != nil {
		d.attachIndex(ix)
	}
	return d, nil
}
