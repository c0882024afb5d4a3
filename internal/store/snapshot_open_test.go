package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

var (
	hospitalImageOnce sync.Once
	hospitalImage     []byte
	hospitalImageErr  error
)

// hospitalSnapshot writes the snapshot of Table 2's T2.8 hospital
// document (HospitalSized(10000)) into a fresh directory and returns its
// path. The image is built once per test binary.
func hospitalSnapshot(tb testing.TB) string {
	tb.Helper()
	hospitalImageOnce.Do(func() {
		d, err := xmldoc.ParseString(xmlgen.Hospital(xmlgen.HospitalSized(10000)), "hospital.xml")
		if err != nil {
			hospitalImageErr = err
			return
		}
		var buf bytes.Buffer
		hospitalImageErr = WriteSnapshot(&buf, d)
		hospitalImage = buf.Bytes()
	})
	if hospitalImageErr != nil {
		tb.Fatal(hospitalImageErr)
	}
	path := filepath.Join(tb.TempDir(), "hospital.xml"+Ext)
	if err := os.WriteFile(path, hospitalImage, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkSnapshotOpen is one cold open of the T2.8 hospital snapshot:
// read, checksum, validate and index decode, with B/op and allocs/op.
func BenchmarkSnapshotOpen(b *testing.B) {
	path := hospitalSnapshot(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotOpenAllocBound: opening a snapshot allocates at most 1.5×
// its file size — the read buffer itself plus the name table, ID map and
// index lookups. A per-node record array (56 bytes a node against the
// file's ~28) would push it past 3×.
func TestSnapshotOpenAllocBound(t *testing.T) {
	path := hospitalSnapshot(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const opens = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < opens; i++ {
		if _, err := Load(path); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOpen := float64(after.TotalAlloc-before.TotalAlloc) / opens
	if ratio := perOpen / float64(st.Size()); ratio > 1.5 {
		t.Errorf("Load allocates %.0f bytes per open of a %d-byte snapshot (%.2f×), want ≤ 1.5×",
			perOpen, st.Size(), ratio)
	} else {
		t.Logf("Load allocates %.0f bytes per open of a %d-byte snapshot (%.2f×)", perOpen, st.Size(), ratio)
	}
}
