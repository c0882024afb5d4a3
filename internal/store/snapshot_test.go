package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

// corpus returns generated documents spanning all four workload shapes,
// with varied seeds (the property-test corpus).
func corpus(t *testing.T) map[string]*xdm.Document {
	t.Helper()
	docs := map[string]string{}
	for _, seed := range []int64{1, 7, 42} {
		au := xmlgen.FromScale(0.001)
		au.Seed = seed
		docs[fmt.Sprintf("auction-%d.xml", seed)] = xmlgen.Auction(au)
		cu := xmlgen.CurriculumSized(60)
		cu.Seed = seed
		docs[fmt.Sprintf("curriculum-%d.xml", seed)] = xmlgen.Curriculum(cu)
		ho := xmlgen.HospitalSized(200)
		ho.Seed = seed
		docs[fmt.Sprintf("hospital-%d.xml", seed)] = xmlgen.Hospital(ho)
	}
	pl := xmlgen.PlaySized()
	docs["play.xml"] = xmlgen.Play(pl)

	out := map[string]*xdm.Document{}
	for uri, xml := range docs {
		d, err := xmldoc.ParseString(xml, uri)
		if err != nil {
			t.Fatalf("parse %s: %v", uri, err)
		}
		out[uri] = d
	}
	return out
}

// loadBoth snapshots d and reloads it through the read and mmap paths.
func loadBoth(t *testing.T, dir string, d *xdm.Document) (read, mapped *xdm.Document) {
	t.Helper()
	path := filepath.Join(dir, filepath.Base(d.URI)+Ext)
	if err := Save(path, d); err != nil {
		t.Fatalf("save %s: %v", d.URI, err)
	}
	read, err := Load(path)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	mapped, err = LoadMmap(path)
	if err != nil {
		t.Fatalf("mmap %s: %v", path, err)
	}
	return read, mapped
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for uri, orig := range corpus(t) {
		origXML := xmldoc.Serialize(orig.Root())
		origStats := orig.Stats()
		read, mapped := loadBoth(t, dir, orig)
		for label, got := range map[string]*xdm.Document{"read": read, "mmap": mapped} {
			if got.URI != orig.URI {
				t.Errorf("%s/%s: URI %q != %q", uri, label, got.URI, orig.URI)
			}
			if got.Len() != orig.Len() {
				t.Errorf("%s/%s: %d nodes != %d", uri, label, got.Len(), orig.Len())
			}
			if gotXML := xmldoc.Serialize(got.Root()); gotXML != origXML {
				t.Errorf("%s/%s: serialization differs (lens %d vs %d)", uri, label, len(gotXML), len(origXML))
			}
			if gs := got.Stats(); gs != origStats {
				t.Errorf("%s/%s: stats %+v != %+v", uri, label, gs, origStats)
			}
			ids := 0
			orig.VisitIDs(func(id string, pre int32) {
				ids++
				ref, ok := got.ByID(id)
				if !ok {
					t.Errorf("%s/%s: ID %q lost", uri, label, id)
					return
				}
				if ref.Pre != pre {
					t.Errorf("%s/%s: ID %q maps to %d, want %d", uri, label, id, ref.Pre, pre)
				}
			})
			if ids != got.IDs() {
				t.Errorf("%s/%s: %d IDs, want %d", uri, label, got.IDs(), ids)
			}
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	cfg := xmlgen.CurriculumSized(40)
	d, err := xmldoc.ParseString(xmlgen.Curriculum(cfg), "c.xml")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same document differ")
	}
}

func TestSnapshotCorruption(t *testing.T) {
	cfg := xmlgen.CurriculumSized(30)
	d, err := xmldoc.ParseString(xmlgen.Curriculum(cfg), "c.xml")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, d); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	flip := func(off int) []byte {
		cp := append([]byte(nil), img...)
		cp[off] ^= 0x40
		return cp
	}
	cases := map[string][]byte{
		"magic":          flip(1),
		"version":        flip(7),
		"header-field":   flip(16),
		"payload-early":  flip(headerLenV2 + 8),
		"payload-late":   flip(len(img) - trailerLen - 3),
		"trailer":        flip(len(img) - 1),
		"truncated":      img[:len(img)/2],
		"truncated-tiny": img[:10],
		"empty":          nil,
	}
	for name, data := range cases {
		if _, err := Decode(append([]byte(nil), data...)); err == nil {
			t.Errorf("%s: corrupted snapshot decoded without error", name)
		}
	}
	if _, err := Decode(append([]byte(nil), img...)); err != nil {
		t.Errorf("pristine image failed to decode: %v", err)
	}
}

// engineResults evaluates query via both engines against the resolver and
// returns per-engine serialized results plus fixpoint counters.
func engineResults(t *testing.T, query string, docs func(string) (*xdm.Document, error)) map[string]string {
	t.Helper()
	m, err := parser.Parse(query)
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	out := map[string]string{}

	ien := interp.New(m, interp.Options{Docs: docs})
	ires, err := ien.Eval()
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	istats := ""
	for _, run := range ires.IFPRuns {
		istats += fmt.Sprintf("[alg=%v fed=%d depth=%d result=%d]",
			run.Algorithm, run.Stats.NodesFedBack, run.Stats.Depth, run.Stats.ResultSize)
	}
	out["interp"] = xmldoc.SerializeSequence(ires.Value) + istats

	plan, err := algebra.CompilePlan(m, algebra.ModeAuto, false, nil, nil)
	if err != nil {
		t.Fatalf("algebra compile: %v", err)
	}
	seq, runs, err := algebra.NewEngineFromPlan(plan, algebra.Options{Docs: docs}).Eval()
	if err != nil {
		t.Fatalf("algebra: %v", err)
	}
	rstats := ""
	for _, run := range runs {
		rstats += fmt.Sprintf("[delta=%v fed=%d depth=%d result=%d]",
			run.Delta, run.Stats.NodesFedBack, run.Stats.Depth, run.Stats.ResultSize)
	}
	out["rel"] = xmldoc.SerializeSequence(seq) + rstats
	return out
}

// TestSnapshotEngineEquivalence is the acceptance property: fixpoint
// queries over parsed, snapshot-read, and mmap'd documents agree byte for
// byte on both engines, including the instrumentation counters.
func TestSnapshotEngineEquivalence(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		gen   func() string
		uri   string
		query string
	}{
		{func() string { return xmlgen.Curriculum(xmlgen.CurriculumSized(60)) }, "curriculum.xml", `
for $c in doc("curriculum.xml")/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`},
		{func() string { return xmlgen.Hospital(xmlgen.HospitalSized(300)) }, "hospital.xml", `
count(with $x seeded by doc("hospital.xml")/hospital/patient[diagnosis = "hd"]
recurse $x/parents/patient[diagnosis = "hd"])`},
		{func() string { return xmlgen.Play(xmlgen.PlaySized()) }, "play.xml", `
with $x seeded by doc("play.xml")//SPEECH[not(preceding-sibling::SPEECH[1]/SPEAKER != SPEAKER)]
recurse for $s in $x
        return $s/following-sibling::SPEECH[1][SPEAKER != $s/SPEAKER]`},
	}
	for _, tc := range cases {
		parsed, err := xmldoc.ParseString(tc.gen(), tc.uri)
		if err != nil {
			t.Fatalf("parse %s: %v", tc.uri, err)
		}
		read, mapped := loadBoth(t, dir, parsed)
		resolver := func(d *xdm.Document) func(string) (*xdm.Document, error) {
			return func(uri string) (*xdm.Document, error) {
				if uri != d.URI {
					return nil, xdm.NotFoundf("unknown document %q", uri)
				}
				return d, nil
			}
		}
		want := engineResults(t, tc.query, resolver(parsed))
		for label, d := range map[string]*xdm.Document{"read": read, "mmap": mapped} {
			got := engineResults(t, tc.query, resolver(d))
			for engine, res := range want {
				if got[engine] != res {
					t.Errorf("%s/%s/%s: results differ:\n got %q\nwant %q",
						tc.uri, label, engine, got[engine], res)
				}
			}
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.xqs")); !os.IsNotExist(err) {
		t.Fatalf("want os.IsNotExist, got %v", err)
	}
}

// wrappingImage is a 120-byte v2 image with a valid checksum whose node
// count makes unchecked section arithmetic wrap: 8854437155380584776
// nodes lay out, modulo 2^64, to exactly the 8-byte payload the header
// declares.
func wrappingImage() []byte {
	img := make([]byte, headerLenV2+8+trailerLen)
	copy(img, magic)
	img[7] = 2
	binary.LittleEndian.PutUint64(img[8:], 8854437155380584776) // nodeCount
	binary.LittleEndian.PutUint64(img[8+7*8:], 8)               // payloadLen
	crc := crc32.Checksum(img[:headerLenV2+8], crcTable)
	binary.LittleEndian.PutUint64(img[headerLenV2+8:], uint64(crc))
	return img
}

// TestDecodeRejectsWrappingSectionCounts: a header count whose section
// cannot fit in the payload is an error before any offset is computed,
// not a slice-bounds panic.
func TestDecodeRejectsWrappingSectionCounts(t *testing.T) {
	img := wrappingImage()
	if len(img) != 120 {
		t.Fatalf("image is %d bytes, want 120", len(img))
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked: %v", r)
		}
	}()
	if _, err := Decode(img); err == nil {
		t.Fatal("Decode accepted a header whose sections wrap around")
	}
}
