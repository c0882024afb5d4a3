package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xq/ast"
)

// fuzzDoc is a small document exercising every node kind, IDs and both
// posting encodings, with a root subtree past probeMinWindow so indexed
// steps from the root really probe.
func fuzzDoc(tb testing.TB) *xdm.Document {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE r [<!ATTLIST e k ID #REQUIRED>]><r>`)
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&sb, `<e k="k%d" n="%d"><f>t%d</f><!--c--><?p v?><g/>x</e>`, i, i%3, i)
	}
	sb.WriteString(`</r>`)
	d, err := xmldoc.ParseString(sb.String(), "f.xml")
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// withCRC recomputes an image's trailer checksum in place, so a mutated
// image reaches the structural checks rather than dying on the CRC.
func withCRC(img []byte) []byte {
	if len(img) >= headerLenV1+trailerLen {
		body := img[:len(img)-trailerLen]
		binary.LittleEndian.PutUint64(img[len(body):], uint64(crc32.Checksum(body, crcTable)))
	}
	return img
}

// fuzzAxes is every axis the step kernel answers.
var fuzzAxes = []ast.Axis{
	ast.AxisChild, ast.AxisDescendant, ast.AxisAttribute, ast.AxisSelf,
	ast.AxisDescendantOrSelf, ast.AxisFollowingSibling, ast.AxisFollowing,
	ast.AxisParent, ast.AxisAncestor, ast.AxisPrecedingSibling,
	ast.AxisPreceding, ast.AxisAncestorOrSelf,
}

// walkDocument calls every accessor on every node of d; a panic anywhere
// fails the fuzz run. Every axis is walked with node(), and the
// index-eligible axes are also probed with name tests (only windows of
// probeMinWindow nodes or more, the root's here, actually probe).
func walkDocument(d *xdm.Document) {
	_ = d.Stats()
	_ = xmldoc.Serialize(d.Root())
	anyNode := ast.NodeTest{Kind: ast.TestAnyKind}
	var named []ast.NodeTest
	for i, name := range d.Columns().Names {
		if i > 0 && i <= 3 {
			named = append(named, ast.NodeTest{Kind: ast.TestName, Name: name})
		}
	}
	var dst []int32
	for pre := 0; pre < d.Len(); pre++ {
		n := xdm.NodeRef{D: d, Pre: int32(pre)}
		_, _, _, _ = n.Kind(), n.Name(), n.Value(), n.StringValue()
		_, _, _ = n.Children(), n.Attributes(), n.String()
		_, _ = n.Parent()
		for _, axis := range fuzzAxes {
			dst = xdm.Step(dst[:0], n, axis, anyNode, true, nil)
		}
		for _, axis := range []ast.Axis{ast.AxisChild, ast.AxisDescendant, ast.AxisDescendantOrSelf, ast.AxisAttribute} {
			for _, test := range named {
				dst = xdm.Step(dst[:0], n, axis, test, false, nil)
			}
		}
	}
	d.VisitIDs(func(id string, _ int32) { d.ByID(id) })
	ix := d.Index()
	for i, key := range ix.Keys() {
		_ = ix.List(i)
		_ = ix.PostingsFor(key.Name, key.Kind)
		_ = ix.DescendantsInRange(key.Name, key.Kind, 0, int32(d.Len()-1))
	}
	_ = ix.Paths()
}

// FuzzSnapshotOpen mutates v1 and v2 snapshot images and recomputes their
// checksums: Decode must either fail or return a document that every
// accessor, every axis (indexed and walked), ByID and the posting lists
// handle without panicking. Accessors read the file's columns in place,
// so structural validation is all that bounds them.
func FuzzSnapshotOpen(f *testing.F) {
	d := fuzzDoc(f)
	for _, version := range []byte{1, Version} {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, d, version); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(wrappingImage())
	f.Fuzz(func(t *testing.T, img []byte) {
		doc, err := Decode(withCRC(append([]byte(nil), img...)))
		if err != nil {
			return
		}
		walkDocument(doc)
	})
}

// v2Sections reads a version 2 image's header and lays out its sections.
func v2Sections(tb testing.TB, img []byte) (header, sections) {
	tb.Helper()
	var h header
	fields := []*uint64{&h.nodeCount, &h.nameCount, &h.nameBlobLen, &h.valueBlobLen,
		&h.idCount, &h.idBlobLen, &h.uriLen, &h.payloadLen,
		&h.postCount, &h.postBlobLen, &h.pathCount}
	for i, p := range fields {
		*p = binary.LittleEndian.Uint64(img[8+8*i:])
	}
	s, err := h.sectionOffsets(h.payloadLen)
	if err != nil {
		tb.Fatal(err)
	}
	return h, s
}

// FuzzSnapshotColumns is the structure-aware companion of
// FuzzSnapshotOpen: it writes one value into one entry of one fixed-width
// section of a valid v2 image (node columns, name and ID offsets, index
// sections), recomputes the checksum, and holds Decode to the same
// contract. Byte mutation rarely lands a whole large integer on a column
// entry; this target does so on every input. section picks the section,
// entry the entry (both modulo their range), and value is truncated to
// the section's width.
func FuzzSnapshotColumns(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, fuzzDoc(f)); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	h, s := v2Sections(f, seed)
	n := h.nodeCount
	columns := []struct{ off, count, width uint64 }{
		{s.kinds, n, 1}, {s.parents, n, 4}, {s.sizes, n, 4}, {s.levels, n, 4},
		{s.nameIDs, n, 4}, {s.nameEnds, h.nameCount, 4}, {s.valueEnds, n, 8},
		{s.idPres, h.idCount, 4}, {s.idEnds, h.idCount, 4},
		{s.postKeys, h.postCount, 8}, {s.postEnds, h.postCount, 8},
		{s.pathNames, h.pathCount, 4}, {s.pathKinds, h.pathCount, 1},
		{s.pathParents, h.pathCount, 4}, {s.pathCounts, h.pathCount, 4},
		{s.pathMins, h.pathCount, 4}, {s.pathMaxs, h.pathCount, 4},
	}
	// A subtree size of MaxInt32 wraps int32 arithmetic on the node's rank.
	f.Add(uint8(2), uint32(8), uint64(math.MaxInt32))
	f.Fuzz(func(t *testing.T, section uint8, entry uint32, value uint64) {
		c := columns[int(section)%len(columns)]
		if c.count == 0 {
			return
		}
		img := append([]byte(nil), seed...)
		at := headerLenV2 + c.off + uint64(entry)%c.count*c.width
		for i := uint64(0); i < c.width; i++ {
			img[at+i] = byte(value >> (8 * i))
		}
		doc, err := Decode(withCRC(img))
		if err != nil {
			return
		}
		walkDocument(doc)
	})
}
