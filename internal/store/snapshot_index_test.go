package store

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

// requireSameIndex asserts two indexes agree on everything the query side
// can observe: the key set, every posting list, and the path summary.
func requireSameIndex(t *testing.T, label string, got, want *xdm.Index) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys(), want.Keys()) {
		t.Errorf("%s: posting keys differ:\n got %v\nwant %v", label, got.Keys(), want.Keys())
		return
	}
	for i := range want.Keys() {
		g := append([]int32(nil), got.List(i)...)
		w := append([]int32(nil), want.List(i)...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: posting list %d (%v) differs:\n got %v\nwant %v",
				label, i, want.Keys()[i], g, w)
		}
	}
	if !reflect.DeepEqual(got.Paths(), want.Paths()) {
		t.Errorf("%s: path summary differs:\n got %v\nwant %v", label, got.Paths(), want.Paths())
	}
}

// TestSnapshotIndexRoundTrip pins the tentpole invariant at the store
// layer: the index decoded zero-copy from a v2 snapshot is identical to
// the index built in memory from the parsed document, through both the
// read and mmap open paths, and is marked persistent (no lazy rebuild).
func TestSnapshotIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for uri, orig := range corpus(t) {
		want := orig.Index()
		if want.Persistent() {
			t.Fatalf("%s: freshly parsed document claims a persistent index", uri)
		}
		read, mapped := loadBoth(t, dir, orig)
		for label, got := range map[string]*xdm.Document{"read": read, "mmap": mapped} {
			info := got.IndexInfo()
			if !info.Present {
				t.Errorf("%s/%s: v2 snapshot opened without an index section", uri, label)
				continue
			}
			if !info.Persistent {
				t.Errorf("%s/%s: index decoded from snapshot not marked persistent", uri, label)
			}
			if info.Bytes <= 0 {
				t.Errorf("%s/%s: persistent index reports %d section bytes", uri, label, info.Bytes)
			}
			ix := got.Index()
			if !ix.Persistent() {
				t.Errorf("%s/%s: Index() lost the persistent flag", uri, label)
			}
			requireSameIndex(t, uri+"/"+label, ix, want)
		}
	}
}

// TestSnapshotV1Compat pins backward compatibility: a version-1 file (no
// index sections) still opens, reports no persistent index, and lazily
// builds an in-memory index identical to the one the v2 writer would have
// persisted.
func TestSnapshotV1Compat(t *testing.T) {
	for uri, orig := range corpus(t) {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, orig, 1); err != nil {
			t.Fatalf("%s: write v1: %v", uri, err)
		}
		if got := buf.Bytes()[7]; got != 1 {
			t.Fatalf("%s: v1 writer stamped version %d", uri, got)
		}
		d, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: v1 snapshot no longer decodes: %v", uri, err)
		}
		if info := d.IndexInfo(); info.Present || info.Persistent {
			t.Errorf("%s: v1 snapshot reports an index before anything asked for one: %+v", uri, info)
		}
		ix := d.Index()
		if ix.Persistent() {
			t.Errorf("%s: lazily built index claims to be persistent", uri)
		}
		requireSameIndex(t, uri+"/v1", ix, orig.Index())
		if info := d.IndexInfo(); !info.Present || info.Persistent {
			t.Errorf("%s: after lazy build, IndexInfo = %+v", uri, info)
		}
	}
}

// TestSnapshotIndexCorruption flips bytes inside every v2 index section
// and checks the CRC rejects the image; header-level index-count damage
// must also fail rather than mis-slice the payload.
func TestSnapshotIndexCorruption(t *testing.T) {
	d, err := xmldoc.ParseString(xmlgen.Hospital(xmlgen.HospitalSized(120)), "h.xml")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, d); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	h, s := v2Sections(t, img)
	if h.postCount == 0 || h.pathCount == 0 {
		t.Fatalf("v2 snapshot carries no index sections (post=%d path=%d)", h.postCount, h.pathCount)
	}

	flip := func(off uint64) []byte {
		cp := append([]byte(nil), img...)
		cp[headerLenV2+off] ^= 0x40
		return cp
	}
	cases := map[string][]byte{
		"postKeys":    flip(s.postKeys),
		"postEnds":    flip(s.postEnds),
		"postBlob":    flip(s.postBlob),
		"pathNames":   flip(s.pathNames),
		"pathKinds":   flip(s.pathKinds),
		"pathParents": flip(s.pathParents),
		"pathCounts":  flip(s.pathCounts),
		"pathMins":    flip(s.pathMins),
		"pathMaxs":    flip(s.pathMaxs),
		// Header damage: growing postCount mis-slices every index
		// section; zeroing pathCount drops the path summary. Both must
		// die on the CRC before any index decoding runs.
		"hdr-postCount": func() []byte {
			cp := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(cp[8+8*8:], h.postCount+1)
			return cp
		}(),
		"hdr-pathCount": func() []byte {
			cp := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(cp[8+8*10:], 0)
			return cp
		}(),
		"truncated-at-index": img[:headerLenV2+int(s.postKeys)+8],
	}
	for name, data := range cases {
		if _, err := Decode(append([]byte(nil), data...)); err == nil {
			t.Errorf("%s: corrupted index section decoded without error", name)
		}
	}
	if _, err := Decode(append([]byte(nil), img...)); err != nil {
		t.Errorf("pristine image failed to decode: %v", err)
	}
}

// TestStaleIndexInvalidated extends the stale-snapshot regression to the
// index sections: after a snapshot is rewritten on disk under the same
// URI, the next resolution must serve a document whose persistent index
// describes the new content — a cached document (and with it, a cached
// index over pre ranks that no longer exist) would poison every probing
// query.
func TestStaleIndexInvalidated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.xml"+Ext)
	d1, err := xmldoc.ParseString("<r><a/><a x='1'/></r>", "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, d1); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Mmap: MmapSupported()})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func() *xdm.Document {
		t.Helper()
		sess := s.Session()
		defer sess.Close()
		doc, err := sess.Resolve("d.xml")
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	ix := resolve().Index()
	if !ix.Persistent() {
		t.Fatalf("snapshot-backed document built its index lazily")
	}
	if got := len(ix.PostingsFor("a", xdm.ElementNode)); got != 2 {
		t.Fatalf("v1 content: %d <a> postings, want 2", got)
	}
	if got := len(ix.PostingsFor("b", xdm.ElementNode)); got != 0 {
		t.Fatalf("v1 content: %d <b> postings, want 0", got)
	}

	d2, err := xmldoc.ParseString("<r><b/><b/><b y='2'/></r>", "d.xml")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // ensure mtime advances
	if err := Save(path, d2); err != nil {
		t.Fatal(err)
	}

	ix = resolve().Index()
	if !ix.Persistent() {
		t.Fatalf("rewritten snapshot lost its persistent index")
	}
	if got := len(ix.PostingsFor("a", xdm.ElementNode)); got != 0 {
		t.Fatalf("after rewrite: %d stale <a> postings, want 0", got)
	}
	if got := len(ix.PostingsFor("b", xdm.ElementNode)); got != 3 {
		t.Fatalf("after rewrite: %d <b> postings, want 3", got)
	}
	if got := len(ix.PostingsFor("y", xdm.AttributeNode)); got != 1 {
		t.Fatalf("after rewrite: %d @y postings, want 1", got)
	}
}
