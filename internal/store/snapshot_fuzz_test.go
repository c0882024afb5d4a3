package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
			dst = xdm.Step(dst[:0], n, axis, anyNode, true)
		}
		for _, axis := range []ast.Axis{ast.AxisChild, ast.AxisDescendant, ast.AxisDescendantOrSelf, ast.AxisAttribute} {
			for _, test := range named {
				_ = n.MatchesTest(test, axis)
				dst = xdm.Step(dst[:0], n, axis, test, false)
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
