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
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

type nodeData struct {
	kind   NodeKind
	name   string // element/attribute name, PI target
	value  string // text/comment/PI content, attribute value
	parent int32  // pre of the parent, -1 for the root
	size   int32  // number of arena slots occupied by the subtree, excluding self
	level  int32
}

// Document is an immutable node arena holding one document (or constructed
// fragment) in document order.
type Document struct {
	URI   string
	stamp int64
	nodes []nodeData
	ids   map[string]int32 // ID attribute value -> element pre

	// statsOnce/stats memoize Stats(); derived, not part of the
	// persistent arena image (see arena.go).
	statsOnce sync.Once
	stats     DocStats

	// idx is the name/path index: attached at load time from a v2
	// snapshot, or built lazily from the arena on first Index() call
	// (see index.go).
	idx atomic.Pointer[Index]
}

// Len reports the number of nodes in the document, including the document
// node itself and attribute nodes.
func (d *Document) Len() int { return len(d.nodes) }

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

func (n NodeRef) data() *nodeData { return &n.D.nodes[n.Pre] }

// Kind returns the node kind.
func (n NodeRef) Kind() NodeKind { return n.data().kind }

// Name returns the node name (element/attribute name or PI target);
// empty for document, text and comment nodes.
func (n NodeRef) Name() string { return n.data().name }

// Level returns the node's depth (document node is level 0).
func (n NodeRef) Level() int32 { return n.data().level }

// Size returns the number of arena slots the subtree occupies (excluding
// the node itself, including attribute nodes).
func (n NodeRef) Size() int32 { return n.data().size }

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
	p := n.data().parent
	if p < 0 {
		return NodeRef{}, false
	}
	return NodeRef{n.D, p}, true
}

// Value returns the node's own content: attribute value, text/comment/PI
// content. For elements and documents it returns the empty string; use
// StringValue for the concatenated text content.
func (n NodeRef) Value() string { return n.data().value }

// StringValue returns the XDM string value of the node: the concatenation
// of all descendant text nodes for documents and elements, and the content
// for the other kinds.
func (n NodeRef) StringValue() string {
	d := n.data()
	switch d.kind {
	case ElementNode, DocumentNode:
		var sb strings.Builder
		end := n.Pre + d.size
		for i := n.Pre + 1; i <= end; i++ {
			if n.D.nodes[i].kind == TextNode {
				sb.WriteString(n.D.nodes[i].value)
			}
		}
		return sb.String()
	default:
		return d.value
	}
}

// Children returns the child nodes (attributes excluded) in document order.
func (n NodeRef) Children() []NodeRef {
	d := n.data()
	if d.kind != ElementNode && d.kind != DocumentNode {
		return nil
	}
	var out []NodeRef
	end := n.Pre + d.size
	for i := n.Pre + 1; i <= end; {
		nd := &n.D.nodes[i]
		if nd.kind == AttributeNode {
			i++
			continue
		}
		out = append(out, NodeRef{n.D, i})
		i += nd.size + 1
	}
	return out
}

// Attributes returns the attribute nodes of an element in document order.
func (n NodeRef) Attributes() []NodeRef {
	d := n.data()
	if d.kind != ElementNode {
		return nil
	}
	var out []NodeRef
	end := n.Pre + d.size
	for i := n.Pre + 1; i <= end; i++ {
		if n.D.nodes[i].kind != AttributeNode || n.D.nodes[i].parent != n.Pre {
			break
		}
		out = append(out, NodeRef{n.D, i})
	}
	return out
}

// EachChild calls fn for each child node (attributes excluded) in
// document order, stopping early when fn returns false — Children
// without materializing the slice.
func (n NodeRef) EachChild(fn func(NodeRef) bool) {
	d := n.data()
	if d.kind != ElementNode && d.kind != DocumentNode {
		return
	}
	end := n.Pre + d.size
	for i := n.Pre + 1; i <= end; {
		nd := &n.D.nodes[i]
		if nd.kind == AttributeNode {
			i++
			continue
		}
		if !fn(NodeRef{n.D, i}) {
			return
		}
		i += nd.size + 1
	}
}

// EachAttribute calls fn for each attribute node of an element in
// document order, stopping early when fn returns false.
func (n NodeRef) EachAttribute(fn func(NodeRef) bool) {
	d := n.data()
	if d.kind != ElementNode {
		return
	}
	end := n.Pre + d.size
	for i := n.Pre + 1; i <= end; i++ {
		if n.D.nodes[i].kind != AttributeNode || n.D.nodes[i].parent != n.Pre {
			return
		}
		if !fn(NodeRef{n.D, i}) {
			return
		}
	}
}

// Attribute returns the value of the named attribute; ok is false if absent.
func (n NodeRef) Attribute(name string) (string, bool) {
	for _, a := range n.Attributes() {
		if a.Name() == name {
			return a.Value(), true
		}
	}
	return "", false
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n NodeRef) IsAncestorOf(m NodeRef) bool {
	if n.D != m.D {
		return false
	}
	return m.Pre > n.Pre && m.Pre <= n.Pre+n.data().size
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
	stack   []int32
	content []bool // whether the open element already has non-attribute content
	done    bool
}

// NewBuilder starts a new document with the given URI. The document node is
// created immediately.
func NewBuilder(uri string) *Builder {
	d := &Document{
		URI:   uri,
		stamp: atomic.AddInt64(&docStamp, 1),
		ids:   make(map[string]int32),
	}
	d.nodes = append(d.nodes, nodeData{kind: DocumentNode, parent: -1})
	return &Builder{d: d, stack: []int32{0}, content: []bool{false}}
}

func (b *Builder) top() int32 { return b.stack[len(b.stack)-1] }

func (b *Builder) push(nd nodeData) int32 {
	nd.parent = b.top()
	nd.level = b.d.nodes[nd.parent].level + 1
	b.d.nodes = append(b.d.nodes, nd)
	return int32(len(b.d.nodes) - 1)
}

// StartElement opens a new element node.
func (b *Builder) StartElement(name string) {
	pre := b.push(nodeData{kind: ElementNode, name: name})
	b.content[len(b.content)-1] = true
	b.stack = append(b.stack, pre)
	b.content = append(b.content, false)
}

// EndElement closes the innermost open element and fixes its subtree size.
func (b *Builder) EndElement() {
	pre := b.top()
	b.d.nodes[pre].size = int32(len(b.d.nodes)-1) - pre
	b.stack = b.stack[:len(b.stack)-1]
	b.content = b.content[:len(b.content)-1]
}

// Attribute adds an attribute to the innermost open element. It panics if
// content was already added (builder misuse is a programming error).
func (b *Builder) Attribute(name, value string) {
	if b.content[len(b.content)-1] {
		panic("xdm: Attribute after element content")
	}
	if b.d.nodes[b.top()].kind != ElementNode {
		panic("xdm: Attribute outside element")
	}
	b.push(nodeData{kind: AttributeNode, name: name, value: value})
}

// RegisterID declares the given attribute value as an ID for the innermost
// open element (used by the DTD ATTLIST scan and xml:id).
func (b *Builder) RegisterID(value string) {
	if _, dup := b.d.ids[value]; !dup {
		b.d.ids[value] = b.top()
	}
}

// Text adds a text node. Adjacent text nodes are merged, as the XDM requires.
func (b *Builder) Text(value string) {
	if value == "" {
		return
	}
	if n := len(b.d.nodes); n > 0 {
		last := &b.d.nodes[n-1]
		if last.kind == TextNode && last.parent == b.top() && last.size == 0 && int32(n-1) != b.top() {
			last.value += value
			return
		}
	}
	b.content[len(b.content)-1] = true
	b.push(nodeData{kind: TextNode, value: value})
}

// Comment adds a comment node.
func (b *Builder) Comment(value string) {
	b.content[len(b.content)-1] = true
	b.push(nodeData{kind: CommentNode, value: value})
}

// PI adds a processing-instruction node.
func (b *Builder) PI(target, value string) {
	b.content[len(b.content)-1] = true
	b.push(nodeData{kind: PINode, name: target, value: value})
}

// CopyTree deep-copies the subtree rooted at src into the document under
// construction (XQuery constructor content copies nodes, creating fresh
// identities). Copying a document node copies its children.
func (b *Builder) CopyTree(src NodeRef) {
	switch src.Kind() {
	case DocumentNode:
		for _, c := range src.Children() {
			b.CopyTree(c)
		}
	case ElementNode:
		b.StartElement(src.Name())
		for _, a := range src.Attributes() {
			b.Attribute(a.Name(), a.Value())
		}
		for _, c := range src.Children() {
			b.CopyTree(c)
		}
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
	b.d.nodes[0].size = int32(len(b.d.nodes) - 1)
	b.done = true
	return b.d
}

// NewLeafDoc creates a fragment document holding one parentless leaf node
// (attribute or text), as produced by computed constructors, and returns
// the node. The node's parent is the fragment's document node.
func NewLeafDoc(kind NodeKind, name, value string) NodeRef {
	d := &Document{stamp: atomic.AddInt64(&docStamp, 1), ids: map[string]int32{}}
	d.nodes = append(d.nodes,
		nodeData{kind: DocumentNode, parent: -1, size: 1},
		nodeData{kind: kind, name: name, value: value, parent: 0, level: 1})
	return NodeRef{d, 1}
}

// SortNodes sorts node references into document order in place
// (stamp-major, preorder-minor) without removing duplicates.
func SortNodes(ns []NodeRef) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Before(ns[j]) })
}
