package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

// runXQ drives the CLI in-process and returns (exit code, stdout, stderr).
func runXQ(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// fixtures builds a store directory holding a snapshot and a plain-XML
// document, plus a -dir directory holding a third document.
func fixtures(t *testing.T) (storeDir, dirDir string) {
	t.Helper()
	storeDir, dirDir = t.TempDir(), t.TempDir()
	doc, err := xmldoc.ParseString(xmlgen.Curriculum(xmlgen.CurriculumSized(100)), "curriculum.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(filepath.Join(storeDir, "curriculum.xml"+store.Ext), doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(storeDir, "plain.xml"), []byte("<plain><a/></plain>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirDir, "fallback.xml"), []byte("<fb><b/><b/></fb>"), 0o644); err != nil {
		t.Fatal(err)
	}
	return storeDir, dirDir
}

func TestStoreThenDirResolution(t *testing.T) {
	storeDir, dirDir := fixtures(t)

	// Snapshot-first: the store serves curriculum.xml without touching -dir.
	code, out, stderr := runXQ(t, "-store", storeDir, "-dir", dirDir,
		"-q", `count(doc("curriculum.xml")//course)`)
	if code != 0 {
		t.Fatalf("store hit: exit %d, stderr %q", code, stderr)
	}
	if strings.TrimSpace(out) != "100" {
		t.Fatalf("store hit: got %q, want 100", out)
	}

	// Plain XML inside the store directory (no snapshot) parses.
	if code, out, stderr = runXQ(t, "-store", storeDir, "-dir", dirDir,
		"-q", `count(doc("plain.xml")/plain/a)`); code != 0 || strings.TrimSpace(out) != "1" {
		t.Fatalf("store XML: exit %d out %q stderr %q", code, out, stderr)
	}

	// Store miss falls through to -dir.
	if code, out, stderr = runXQ(t, "-store", storeDir, "-dir", dirDir,
		"-q", `count(doc("fallback.xml")//b)`); code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("dir fallback: exit %d out %q stderr %q", code, out, stderr)
	}
}

// TestResolutionErrorNamesEveryPath is the error-path contract: a URI
// missing everywhere must fail naming the URI and each searched location —
// the store's snapshot and XML paths and the -dir file — so the operator
// can see exactly where resolution looked.
func TestResolutionErrorNamesEveryPath(t *testing.T) {
	storeDir, dirDir := fixtures(t)
	code, _, stderr := runXQ(t, "-store", storeDir, "-dir", dirDir,
		"-q", `doc("nowhere.xml")`)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	for _, frag := range []string{
		"nowhere.xml",
		filepath.Join(storeDir, "nowhere.xml"+store.Ext),
		filepath.Join(dirDir, "nowhere.xml"),
	} {
		if !strings.Contains(stderr, frag) {
			t.Errorf("error does not name %q:\n%s", frag, stderr)
		}
	}

	// Without a store the -dir miss alone must still name its path.
	code, _, stderr = runXQ(t, "-dir", dirDir, "-q", `doc("nowhere.xml")`)
	if code != 1 || !strings.Contains(stderr, filepath.Join(dirDir, "nowhere.xml")) {
		t.Fatalf("dir-only miss: exit %d stderr %q", code, stderr)
	}

	// A store directory that does not exist fails at open, naming it.
	code, _, stderr = runXQ(t, "-store", filepath.Join(storeDir, "missing-subdir"),
		"-q", `doc("curriculum.xml")`)
	if code != 1 || !strings.Contains(stderr, "missing-subdir") {
		t.Fatalf("bad store dir: exit %d stderr %q", code, stderr)
	}
}

func TestStoreStatsOutput(t *testing.T) {
	storeDir, dirDir := fixtures(t)
	code, _, stderr := runXQ(t, "-store", storeDir, "-dir", dirDir, "-store-stats",
		"-engine", "rel", "-q", `count(doc("curriculum.xml")//course)`)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "store: hits=0 misses=1") {
		t.Fatalf("-store-stats output missing or wrong:\n%s", stderr)
	}
	// The snapshot-backed document carries a persistent index, and the
	// name-tested descendant step probes it.
	if !strings.Contains(stderr, "index: docs=1 persistent=1") {
		t.Fatalf("-store-stats index line missing or wrong:\n%s", stderr)
	}
	if strings.Contains(stderr, "probes=0 ") {
		t.Fatalf("-store-stats reports no index probes for an index-eligible query:\n%s", stderr)
	}
	// Without -store, -store-stats must not print (no store opened).
	code, _, stderr = runXQ(t, "-dir", dirDir, "-store-stats",
		"-q", `count(doc("fallback.xml")//b)`)
	if code != 0 || strings.Contains(stderr, "store:") {
		t.Fatalf("storeless -store-stats: exit %d stderr %q", code, stderr)
	}
}

// TestParallelFlagAndStats: -stats prints the fixpoint counters on both
// engines, which agree on the answer, and the removed -p flag is rejected:
// every evaluation is sequential.
func TestParallelFlagAndStats(t *testing.T) {
	storeDir, dirDir := fixtures(t)
	query := `for $c in doc("curriculum.xml")/curriculum/course
	          where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
	          return $c/@code/string()`
	var base string
	for _, engine := range []string{"interp", "rel"} {
		code, out, stderr := runXQ(t, "-store", storeDir, "-dir", dirDir,
			"-engine", engine, "-stats", "-q", query)
		if code != 0 {
			t.Fatalf("engine=%s: exit %d stderr %q", engine, code, stderr)
		}
		if base == "" {
			base = out
		} else if out != base {
			t.Fatalf("engine=%s: output diverges", engine)
		}
		if !strings.Contains(stderr, "fixpoint 1:") {
			t.Fatalf("engine=%s: want -stats output:\n%s", engine, stderr)
		}
	}
	if code, _, stderr := runXQ(t, "-p", "4", "-q", query); code != 2 || !strings.Contains(stderr, "-p") {
		t.Fatalf("-p 4: exit %d, stderr %q; want the unknown-flag error", code, stderr)
	}
}

func TestFlagErrors(t *testing.T) {
	_, dirDir := fixtures(t)
	if code, _, _ := runXQ(t); code != 2 {
		t.Errorf("no query: exit %d, want 2", code)
	}
	if code, _, stderr := runXQ(t, "-q", "1", "-engine", "bogus"); code != 1 || !strings.Contains(stderr, "bogus") {
		t.Errorf("bad engine: exit %d stderr %q", code, stderr)
	}
	if code, _, stderr := runXQ(t, "-q", "1", "-mode", "bogus"); code != 1 || !strings.Contains(stderr, "bogus") {
		t.Errorf("bad mode: exit %d stderr %q", code, stderr)
	}
	if code, _, stderr := runXQ(t, "-f", filepath.Join(dirDir, "no-such.xq")); code != 1 || !strings.Contains(stderr, "no-such.xq") {
		t.Errorf("bad -f: exit %d stderr %q", code, stderr)
	}
	if code, _, _ := runXQ(t, "-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestOptLevelParity evaluates the same relational query at -O0 and -O1:
// the optimizer must not change what the query returns.
func TestOptLevelParity(t *testing.T) {
	storeDir, dirDir := fixtures(t)
	q := `for $c in doc("curriculum.xml")/curriculum/course
	      where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
	      return $c/@code/string()`
	var outs [2]string
	for i, lvl := range []string{"0", "1"} {
		code, out, stderr := runXQ(t, "-store", storeDir, "-dir", dirDir,
			"-engine", "rel", "-O", lvl, "-q", q)
		if code != 0 {
			t.Fatalf("-O%s: exit %d stderr %q", lvl, code, stderr)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Fatalf("-O0 and -O1 disagree:\n-O0: %q\n-O1: %q", outs[0], outs[1])
	}
}

// TestExplainHonoursMode: -explain renders each µ site as the given -mode
// runs it, so a certified site is µ under -mode naive.
func TestExplainHonoursMode(t *testing.T) {
	query := `with $x seeded by doc("a.xml")/a recurse $x/b`
	for mode, want := range map[string]string{"auto": "\nmu-delta {", "naive": "\nmu {", "delta": "\nmu-delta {"} {
		for _, level := range []string{"0", "1"} {
			code, out, stderr := runXQ(t, "-explain", "-mode", mode, "-O", level, "-q", query)
			if code != 0 {
				t.Fatalf("-mode %s -O%s: exit %d stderr %q", mode, level, code, stderr)
			}
			if !strings.Contains(out, want) {
				t.Errorf("-mode %s -O%s: plan lacks %q:\n%s", mode, level, want, out)
			}
		}
	}
}

func TestExplainAndFile(t *testing.T) {
	_, dirDir := fixtures(t)
	code, out, stderr := runXQ(t, "-explain", "-q", `count(doc("fallback.xml")//b)`)
	if code != 0 || out == "" {
		t.Fatalf("-explain: exit %d out %q stderr %q", code, out, stderr)
	}
	// -explain must show the plan that actually runs: raw AND optimized.
	for _, want := range []string{"-- raw plan --", "-- optimized plan (-O1, executed) --"} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output misses %q:\n%s", want, out)
		}
	}
	if code, out0, _ := runXQ(t, "-explain", "-O", "0", "-q", `count(doc("fallback.xml")//b)`); code != 0 ||
		!strings.Contains(out0, "-- raw plan --") || strings.Contains(out0, "optimized plan") {
		t.Errorf("-O0 -explain should print only the raw plan:\n%s", out0)
	}
	if code, _, stderr := runXQ(t, "-O", "3", "-q", "1"); code != 1 || !strings.Contains(stderr, "-O3") {
		t.Errorf("bad -O level: exit %d stderr %q", code, stderr)
	}
	qf := filepath.Join(dirDir, "q.xq")
	if err := os.WriteFile(qf, []byte(`count(doc("fallback.xml")//b)`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, stderr := runXQ(t, "-dir", dirDir, "-f", qf); code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("-f: exit %d out %q stderr %q", code, out, stderr)
	}
}
