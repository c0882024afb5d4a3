// Package xdm implements the XQuery Data Model (XDM) subset used throughout
// this repository: ordered node trees with identity and document order,
// atomic values, item sequences, and the sequence-level operations
// (atomization, effective boolean value, comparisons, fs:ddo, node-set
// operations) that the paper's inflationary fixed point semantics are
// defined against.
//
// Nodes are stored in per-document arenas using the pre/size/level encoding
// familiar from MonetDB/XQuery: a node is identified by its preorder rank,
// its subtree occupies the contiguous arena range (pre, pre+size], and level
// is its depth. This makes the recursive XPath axes range scans, mirroring
// the relational substrate the paper builds on.
package xdm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// NodeKind enumerates the node kinds of the XDM.
type NodeKind uint8

// Node kinds. Attribute nodes are stored in the arena directly after their
// owner element (before any children) and are skipped by the child and
// descendant axes.
const (
	DocumentNode NodeKind = iota
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	PINode
)

// String returns the XPath kind-test spelling of the node kind.
func (k NodeKind) String() string {
	switch k {
	case DocumentNode:
		return "document-node()"
	case ElementNode:
		return "element()"
	case AttributeNode:
		return "attribute()"
	case TextNode:
		return "text()"
	case CommentNode:
		return "comment()"
	case PINode:
		return "processing-instruction()"
	}
	return "unknown-node()"
}

// docStamp is the global document creation counter; it totally orders nodes
// from distinct documents (and constructed fragments), giving XQuery's
// stable, implementation-defined inter-document order.
var docStamp int64

func nextStamp() int64 { return atomic.AddInt64(&docStamp, 1) }

// Document is an immutable node table holding one document (or
// constructed fragment) in document order. It is stored as columns
// indexed by preorder rank — the `.xqs` snapshot's node vectors, which an
// opened snapshot keeps as views into its file bytes (see arena.go).
type Document struct {
	URI   string
	stamp int64

	kinds     []NodeKind
	parents   []int32 // pre of the parent, -1 for the root
	sizes     []int32 // slots occupied by the subtree, excluding self
	levels    []int32
	nameIDs   []uint32          // index into names
	names     []string          // interned names; names[0] is ""
	nameIx    map[string]uint32 // name -> id; nil while names is small
	valueEnds []uint64          // cumulative end offsets into values
	values    string            // node contents, concatenated in preorder

	ids map[string]int32 // ID attribute value -> element pre

	// statsOnce/stats memoize Stats(); derived, not part of the
	// persistent arena image (see arena.go).
	statsOnce sync.Once
	stats     DocStats

	// idx is the name/path index: attached at load time from a v2
	// snapshot, or built lazily from the arena on first Index() call
	// (see index.go).
	idx atomic.Pointer[Index]
}

// smallNames is the name-table size up to which names are looked up by
// a linear scan; larger tables get a map. Constructed fragments have a
// name or two, so building one allocates no map.
const smallNames = 16

// NameID returns the id of name in the document's name table; ok is false
// when no node of the document carries that name.
func (d *Document) NameID(name string) (id uint32, ok bool) {
	if d.nameIx != nil {
		id, ok := d.nameIx[name]
		return id, ok
	}
	for i, s := range d.names {
		if s == name {
			return uint32(i), true
		}
	}
	return 0, false
}

// value returns the content of the node at pre.
func (d *Document) value(pre int32) string {
	var start uint64
	if pre > 0 {
		start = d.valueEnds[pre-1]
	}
	return d.values[start:d.valueEnds[pre]]
}

// Len reports the number of nodes in the document, including the document
// node itself and attribute nodes.
func (d *Document) Len() int { return len(d.kinds) }

// Root returns the document node.
func (d *Document) Root() NodeRef { return NodeRef{d, 0} }

// Stamp returns the document's global creation stamp (inter-document order).
func (d *Document) Stamp() int64 { return d.stamp }

// ByID resolves an ID attribute value to the element carrying it.
// The second result is false if the document defines no such ID.
func (d *Document) ByID(id string) (NodeRef, bool) {
	pre, ok := d.ids[id]
	if !ok {
		return NodeRef{}, false
	}
	return NodeRef{d, pre}, true
}

// IDs returns the number of registered ID attribute values.
func (d *Document) IDs() int { return len(d.ids) }

// NodeRef identifies one node: a document plus the node's preorder rank.
// The zero NodeRef is invalid; use IsValid to test.
type NodeRef struct {
	D   *Document
	Pre int32
}

// IsValid reports whether the reference points into a document.
func (n NodeRef) IsValid() bool { return n.D != nil }

// Kind returns the node kind.
func (n NodeRef) Kind() NodeKind { return n.D.kinds[n.Pre] }

// Name returns the node name (element/attribute name or PI target);
// empty for document, text and comment nodes.
func (n NodeRef) Name() string { return n.D.names[n.D.nameIDs[n.Pre]] }

// Level returns the node's depth (document node is level 0).
func (n NodeRef) Level() int32 { return n.D.levels[n.Pre] }

// Size returns the number of arena slots the subtree occupies (excluding
// the node itself, including attribute nodes).
func (n NodeRef) Size() int32 { return n.D.sizes[n.Pre] }

// Same reports node identity (the `is` operator).
func (n NodeRef) Same(m NodeRef) bool { return n.D == m.D && n.Pre == m.Pre }

// Before reports whether n precedes m in document order (the `<<` operator).
// Nodes of different documents are ordered by document stamp.
func (n NodeRef) Before(m NodeRef) bool {
	if n.D != m.D {
		return n.D.stamp < m.D.stamp
	}
	return n.Pre < m.Pre
}

// Parent returns the parent node; ok is false at the root.
func (n NodeRef) Parent() (NodeRef, bool) {
	p := n.D.parents[n.Pre]
	if p < 0 {
		return NodeRef{}, false
	}
	return NodeRef{n.D, p}, true
}

// Value returns the node's own content: attribute value, text/comment/PI
// content. For elements and documents it returns the empty string; use
// StringValue for the concatenated text content.
func (n NodeRef) Value() string { return n.D.value(n.Pre) }

// StringValue returns the XDM string value of the node: the concatenation
// of all descendant text nodes for documents and elements, and the content
// for the other kinds. Contents sit in the value blob in preorder, so when
// no attribute, comment or PI in the subtree has content, the text is one
// contiguous run of the blob and is returned without copying.
func (n NodeRef) StringValue() string {
	d := n.D
	switch d.kinds[n.Pre] {
	case ElementNode, DocumentNode:
		end := n.Pre + d.sizes[n.Pre]
		for i := n.Pre + 1; i <= end; i++ {
			if d.kinds[i] != TextNode && d.valueEnds[i] != d.valueEnds[i-1] {
				return d.textOf(n.Pre, end)
			}
		}
		return d.values[d.valueEnds[n.Pre]:d.valueEnds[end]]
	default:
		return d.value(n.Pre)
	}
}

// textOf concatenates the text nodes in (pre, end].
func (d *Document) textOf(pre, end int32) string {
	var sb strings.Builder
	for i := pre + 1; i <= end; i++ {
		if d.kinds[i] == TextNode {
			sb.WriteString(d.value(i))
		}
	}
	return sb.String()
}

// Children returns the child nodes (attributes excluded) in document order.
func (n NodeRef) Children() []NodeRef {
	var out []NodeRef
	n.EachChild(func(c NodeRef) bool {
		out = append(out, c)
		return true
	})
	return out
}

// Attributes returns the attribute nodes of an element in document order.
func (n NodeRef) Attributes() []NodeRef {
	var out []NodeRef
	n.EachAttribute(func(a NodeRef) bool {
		out = append(out, a)
		return true
	})
	return out
}

// EachChild calls fn for each child node (attributes excluded) in
// document order, stopping early when fn returns false — Children
// without materializing the slice.
func (n NodeRef) EachChild(fn func(NodeRef) bool) {
	d := n.D
	if k := d.kinds[n.Pre]; k != ElementNode && k != DocumentNode {
		return
	}
	end := n.Pre + d.sizes[n.Pre]
	for i := n.Pre + 1; i <= end; {
		if d.kinds[i] == AttributeNode {
			i++
			continue
		}
		if !fn(NodeRef{d, i}) {
			return
		}
		i += d.sizes[i] + 1
	}
}

// EachAttribute calls fn for each attribute node of an element in
// document order, stopping early when fn returns false.
func (n NodeRef) EachAttribute(fn func(NodeRef) bool) {
	d := n.D
	if d.kinds[n.Pre] != ElementNode {
		return
	}
	end := n.Pre + d.sizes[n.Pre]
	for i := n.Pre + 1; i <= end; i++ {
		if d.kinds[i] != AttributeNode || d.parents[i] != n.Pre {
			return
		}
		if !fn(NodeRef{d, i}) {
			return
		}
	}
}

// Attribute returns the value of the named attribute; ok is false if absent.
func (n NodeRef) Attribute(name string) (string, bool) {
	val, found := "", false
	n.EachAttribute(func(a NodeRef) bool {
		if a.Name() == name {
			val, found = a.Value(), true
		}
		return !found
	})
	return val, found
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n NodeRef) IsAncestorOf(m NodeRef) bool {
	if n.D != m.D {
		return false
	}
	return m.Pre > n.Pre && m.Pre <= n.Pre+n.Size()
}

// String renders a short diagnostic form of the node.
func (n NodeRef) String() string {
	if !n.IsValid() {
		return "<invalid-node>"
	}
	switch n.Kind() {
	case ElementNode:
		return fmt.Sprintf("element(%s)@%d", n.Name(), n.Pre)
	case AttributeNode:
		return fmt.Sprintf("attribute(%s=%q)@%d", n.Name(), n.Value(), n.Pre)
	case TextNode:
		return fmt.Sprintf("text(%q)@%d", n.Value(), n.Pre)
	case DocumentNode:
		return fmt.Sprintf("document(%s)", n.D.URI)
	case CommentNode:
		return fmt.Sprintf("comment@%d", n.Pre)
	case PINode:
		return fmt.Sprintf("pi(%s)@%d", n.Name(), n.Pre)
	}
	return "node()"
}

// Builder constructs a Document in document order. The sequence of calls
// must be well nested; attributes must be added directly after their
// element is started, before any content.
type Builder struct {
	d       *Document
	values  []byte  // the value blob under construction
	stack   []int32 // open nodes, document node first
	content []bool  // whether the open element already has non-attribute content
	done    bool

	// Inline first buffers for the stack, the name table and the value
	// blob: a constructed fragment needs no other allocation than the
	// builder, its document and one column block. The document may keep
	// its builder's memory alive through them.
	stackBuf   [8]int32
	contentBuf [8]bool
	nameBuf    [4]string
	valueBuf   [32]byte
}

// NewBuilder starts a new document with the given URI. The document node is
// created immediately.
func NewBuilder(uri string) *Builder {
	b := &Builder{d: &Document{URI: uri, stamp: nextStamp()}}
	b.d.names = append(b.nameBuf[:0], "")
	b.values = b.valueBuf[:0]
	b.stack = b.stackBuf[:0]
	b.push(DocumentNode, 0, "")
	b.stack = append(b.stack, 0)
	b.content = append(b.contentBuf[:0], false)
	return b
}

func (b *Builder) top() int32 { return b.stack[len(b.stack)-1] }

// grow moves every column into one fresh block with room for twice the
// nodes, so a document under construction costs one allocation per
// doubling. The block is pointer-free; each column is a typed view of
// its part (valueEnds first, for alignment, then the four 4-byte
// columns, then kinds).
func (b *Builder) grow() {
	d := b.d
	n := len(d.kinds)
	c := max(2*n, 8)
	block := make([]uint64, 3*c+(c+7)/8)
	words := func(at int) unsafe.Pointer { return unsafe.Pointer(&block[at]) }
	valueEnds := block[:n:c]
	parents := unsafe.Slice((*int32)(words(c)), c)[:n]
	sizes := unsafe.Slice((*int32)(words(c+c/2)), c)[:n]
	levels := unsafe.Slice((*int32)(words(2*c)), c)[:n]
	nameIDs := unsafe.Slice((*uint32)(words(2*c+c/2)), c)[:n]
	kinds := unsafe.Slice((*NodeKind)(words(3*c)), c)[:n]
	copy(valueEnds, d.valueEnds)
	copy(parents, d.parents)
	copy(sizes, d.sizes)
	copy(levels, d.levels)
	copy(nameIDs, d.nameIDs)
	copy(kinds, d.kinds)
	d.valueEnds, d.parents, d.sizes, d.levels, d.nameIDs, d.kinds =
		valueEnds, parents, sizes, levels, nameIDs, kinds
}

// intern returns name's id, adding it to the name table when new.
func (b *Builder) intern(name string) uint32 {
	d := b.d
	if id, ok := d.NameID(name); ok {
		return id
	}
	id := uint32(len(d.names))
	d.names = append(d.names, name)
	switch {
	case d.nameIx != nil:
		d.nameIx[name] = id
	case len(d.names) > smallNames:
		d.nameIx = make(map[string]uint32, 2*len(d.names))
		for i, s := range d.names {
			d.nameIx[s] = uint32(i)
		}
	}
	return id
}

// push appends a node under the innermost open node and returns its pre.
func (b *Builder) push(kind NodeKind, nameID uint32, value string) int32 {
	d := b.d
	pre := len(d.kinds)
	if pre == cap(d.kinds) {
		b.grow()
	}
	parent, level := int32(-1), int32(0) // the document node
	if len(b.stack) > 0 {
		parent = b.top()
		level = d.levels[parent] + 1
	}
	b.values = append(b.values, value...)
	d.kinds = append(d.kinds, kind)
	d.parents = append(d.parents, parent)
	d.sizes = append(d.sizes, 0)
	d.levels = append(d.levels, level)
	d.nameIDs = append(d.nameIDs, nameID)
	d.valueEnds = append(d.valueEnds, uint64(len(b.values)))
	return int32(pre)
}

// StartElement opens a new element node.
func (b *Builder) StartElement(name string) {
	pre := b.push(ElementNode, b.intern(name), "")
	b.content[len(b.content)-1] = true
	b.stack = append(b.stack, pre)
	b.content = append(b.content, false)
}

// EndElement closes the innermost open element and fixes its subtree size.
func (b *Builder) EndElement() {
	pre := b.top()
	b.d.sizes[pre] = int32(len(b.d.kinds)-1) - pre
	b.stack = b.stack[:len(b.stack)-1]
	b.content = b.content[:len(b.content)-1]
}

// Attribute adds an attribute to the innermost open element. It panics if
// content was already added (builder misuse is a programming error).
func (b *Builder) Attribute(name, value string) {
	if b.content[len(b.content)-1] {
		panic("xdm: Attribute after element content")
	}
	if b.d.kinds[b.top()] != ElementNode {
		panic("xdm: Attribute outside element")
	}
	b.push(AttributeNode, b.intern(name), value)
}

// RegisterID declares the given attribute value as an ID for the innermost
// open element (used by the DTD ATTLIST scan and xml:id).
func (b *Builder) RegisterID(value string) {
	if b.d.ids == nil {
		b.d.ids = make(map[string]int32)
	}
	if _, dup := b.d.ids[value]; !dup {
		b.d.ids[value] = b.top()
	}
}

// Text adds a text node. Adjacent text nodes are merged, as the XDM
// requires: the merged text extends the value blob's tail.
func (b *Builder) Text(value string) {
	if value == "" {
		return
	}
	d := b.d
	if last := int32(len(d.kinds) - 1); d.kinds[last] == TextNode && d.parents[last] == b.top() {
		b.values = append(b.values, value...)
		d.valueEnds[last] = uint64(len(b.values))
		return
	}
	b.content[len(b.content)-1] = true
	b.push(TextNode, 0, value)
}

// Comment adds a comment node.
func (b *Builder) Comment(value string) {
	b.content[len(b.content)-1] = true
	b.push(CommentNode, 0, value)
}

// PI adds a processing-instruction node.
func (b *Builder) PI(target, value string) {
	b.content[len(b.content)-1] = true
	b.push(PINode, b.intern(target), value)
}

// CopyTree deep-copies the subtree rooted at src into the document under
// construction (XQuery constructor content copies nodes, creating fresh
// identities). Copying a document node copies its children.
func (b *Builder) CopyTree(src NodeRef) {
	switch src.Kind() {
	case DocumentNode:
		src.EachChild(func(c NodeRef) bool {
			b.CopyTree(c)
			return true
		})
	case ElementNode:
		b.StartElement(src.Name())
		src.EachAttribute(func(a NodeRef) bool {
			b.Attribute(a.Name(), a.Value())
			return true
		})
		src.EachChild(func(c NodeRef) bool {
			b.CopyTree(c)
			return true
		})
		b.EndElement()
	case AttributeNode:
		b.Attribute(src.Name(), src.Value())
	case TextNode:
		b.Text(src.Value())
	case CommentNode:
		b.Comment(src.Value())
	case PINode:
		b.PI(src.Name(), src.Value())
	}
}

// Done finishes the document and returns it. The builder must be balanced
// (all elements closed).
func (b *Builder) Done() *Document {
	if b.done {
		panic("xdm: Builder.Done called twice")
	}
	if len(b.stack) != 1 {
		panic(fmt.Sprintf("xdm: Builder.Done with %d unclosed elements", len(b.stack)-1))
	}
	d := b.d
	d.sizes[0] = int32(len(d.kinds) - 1)
	// The builder never writes b.values again, so the blob can be
	// shared rather than copied.
	d.values = unsafe.String(unsafe.SliceData(b.values), len(b.values))
	b.done = true
	return d
}

// leafDoc is a fragment of two nodes whose columns live in the document's
// own allocation.
type leafDoc struct {
	Document
	kindCol                      [2]NodeKind
	parentCol, sizeCol, levelCol [2]int32
	nameIDCol                    [2]uint32
	valueEndCol                  [2]uint64
	nameCol                      [2]string
}

// NewLeafDoc creates a fragment document holding one parentless leaf node
// (attribute or text), as produced by computed constructors, and returns
// the node. The node's parent is the fragment's document node.
func NewLeafDoc(kind NodeKind, name, value string) NodeRef {
	l := &leafDoc{
		kindCol:     [2]NodeKind{DocumentNode, kind},
		parentCol:   [2]int32{-1, 0},
		sizeCol:     [2]int32{1, 0},
		levelCol:    [2]int32{0, 1},
		valueEndCol: [2]uint64{0, uint64(len(value))},
		nameCol:     [2]string{"", name},
	}
	d := &l.Document
	d.stamp = nextStamp()
	d.kinds, d.parents, d.sizes, d.levels = l.kindCol[:], l.parentCol[:], l.sizeCol[:], l.levelCol[:]
	d.valueEnds, d.values = l.valueEndCol[:], value
	d.nameIDs, d.names = l.nameIDCol[:], l.nameCol[:1]
	if name != "" {
		d.nameIDs[1], d.names = 1, l.nameCol[:]
	}
	return NodeRef{d, 1}
}

// SortNodes sorts node references into document order in place
// (stamp-major, preorder-minor) without removing duplicates. A batch of up
// to 64 nodes sorts as rank words (sortNodes) in a stack buffer; a longer
// one has no scratch to borrow, and a buffer of its own would cost an
// allocation per call, so it keeps the comparator.
func SortNodes(ns []NodeRef) {
	var buf [64]int32
	if len(ns) > len(buf) {
		sortNodesCmp(ns)
		return
	}
	sortNodes(ns, buf[:0])
}

// sortNodes is SortNodes with a caller-kept scratch buffer, which it
// returns, grown if it had to be. Within one document a preorder rank is
// document order (§4's pre/size/level encoding), so a one-document batch —
// nearly every batch — sorts its ranks as plain words and writes them
// back. A batch spanning documents keeps the two-field comparator: packing
// (stamp, pre) words would sort as fast, but writing them back would need
// a stamp → document lookup, and such batches (constructed nodes meeting
// stored ones) are rare and small. A batch already in order is left as
// it is.
func sortNodes(ns []NodeRef, scratch []int32) []int32 {
	if len(ns) < 2 {
		return scratch
	}
	d := ns[0].D
	pres := slices.Grow(scratch[:0], len(ns))[:len(ns)]
	sorted := true
	for i, n := range ns {
		if n.D != d {
			sortNodesCmp(ns)
			return pres
		}
		pres[i] = n.Pre
		if i > 0 && n.Pre < pres[i-1] {
			sorted = false
		}
	}
	if sorted {
		return pres
	}
	slices.Sort(pres)
	for i, pre := range pres {
		ns[i].Pre = pre
	}
	return pres
}

func sortNodesCmp(ns []NodeRef) {
	slices.SortFunc(ns, func(a, b NodeRef) int {
		if a.D != b.D {
			return cmp.Compare(a.D.stamp, b.D.stamp)
		}
		return cmp.Compare(a.Pre, b.Pre)
	})
}
