package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestVaryParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Config
	}{
		{"p=1,2", []Config{{1, 1, 1}, {2, 1, 1}}},
		{"opt=0,1", []Config{{1, 0, 1}, {1, 1, 1}}},
		{"ix=0", []Config{{1, 1, 0}}},
	} {
		var v Vary
		if err := v.Set(tc.in); err != nil {
			t.Errorf("-vary %s: %v", tc.in, err)
		} else if got := v.Configs(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-vary %s: configs %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := new(Vary).Configs(); !reflect.DeepEqual(got, []Config{Default}) {
		t.Errorf("no -vary: configs %v, want the default alone", got)
	}
	for _, bad := range []string{"cache=0,1", "O=0", "p", "p=", "p=0", "p=1,0", "p=two", "opt=2", "ix=-1", "=1"} {
		if err := new(Vary).Set(bad); err == nil {
			t.Errorf("-vary %s accepted", bad)
		}
	}
	// One axis per run: the flag package calls Set once per occurrence.
	var v Vary
	fs := flag.NewFlagSet("ifpbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&v, "vary", "")
	if err := fs.Parse([]string{"-vary", "p=1,2", "-vary", "ix=0,1"}); err == nil {
		t.Errorf("a repeated -vary was accepted: %+v", v)
	}
}

func TestSnapshotRoundTripAndV1Rejection(t *testing.T) {
	dir := t.TempDir()
	in := NewFile([]Entry{
		{ID: "T2.1/rel/Delta", Exp: "T2.1", Engine: "rel", Alg: "Delta", Config: Config{P: 2, Opt: 1, Ix: 0},
			NsOp: 40e6, BytesOp: 1 << 20, AllocsOp: 400, NodesFed: 138, Depth: 4, ResultLen: 25,
			PhaseNs: map[string]int64{"exec": 39e6}},
	})
	path := filepath.Join(dir, "BENCH_17.json")
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the snapshot:\n in: %+v\nout: %+v", in, out)
	}
	raw, _ := os.ReadFile(path)
	for _, field := range []string{`"id": "T2.1/rel/Delta"`, `"exp": "T2.1"`, `"engine": "rel"`, `"alg": "Delta"`, `"p": 2`, `"opt": 1`, `"ix": 0`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("written snapshot lacks %s:\n%s", field, raw)
		}
	}

	v1 := filepath.Join(dir, "BENCH_8.json")
	os.WriteFile(v1, []byte(`{"schema": "ifpxq-bench/v1", "entries": [{"name": "T2.1/x/rel/Delta/cache=0"}]}`), 0o644)
	if _, err := ReadFile(v1); err == nil || !strings.Contains(err.Error(), "ifpxq-bench/v1") || !strings.Contains(err.Error(), SnapshotSchema) {
		t.Errorf("v1 file: got %v, want a rejection naming both schemas", err)
	}
}

func cell(id string, cfg Config, ns float64, allocs int64) Entry {
	return Entry{ID: id, Config: cfg, NsOp: ns, AllocsOp: allocs}
}

// TestDiffKeysOnIDAndConfig: entries match on (id, p, opt, ix) — the same
// id at ix=0 and ix=1 is two cells — cells in one file only are skipped,
// and each metric gates on its own tolerance.
func TestDiffKeysOnIDAndConfig(t *testing.T) {
	scan := Config{P: 1, Opt: 1, Ix: 0}
	baseline := NewFile([]Entry{
		cell("T2.1/rel/Naive", Default, 100e6, 1000),
		cell("T2.1/rel/Naive", scan, 300e6, 5000),
		cell("T2.1/rel/Delta", Default, 40e6, 400),
		cell("T2.9/gone/Delta", Default, 1, 1), // baseline only: skipped
	})
	current := NewFile([]Entry{
		cell("T2.1/rel/Naive", Default, 100e6, 1240),                   // allocs +24 %: passes
		cell("T2.1/rel/Naive", scan, 300e6, 6300),                      // allocs +26 %: flagged
		cell("T2.1/rel/Delta", Default, 81e6, 400),                     // ns 2.03×: flagged
		cell("T2.1/rel/Delta", Config{P: 2, Opt: 1, Ix: 1}, 1e12, 1e9), // current only: skipped
	})
	diffs := Diff(baseline, current, 1.0, 0.25)
	if len(diffs) != 3 {
		t.Fatalf("diff covers %d cells, want 3: %+v", len(diffs), diffs)
	}
	if d := diffs[0]; d.Config != Default || d.BaseAllocs != 1000 || d.Regressed() {
		t.Errorf("ix=1 cell: %+v, want baseline 1000 allocs and no regression at +24%%", d)
	}
	if d := diffs[1]; d.Config != scan || d.BaseAllocs != 5000 || !d.AllocsRegred || d.NsRegressed {
		t.Errorf("ix=0 cell: %+v, want its own baseline and an allocs regression at +26%%", d)
	}
	if d := diffs[2]; !d.NsRegressed || d.AllocsRegred {
		t.Errorf("2.03× ns cell: %+v, want an ns regression only", d)
	}
	var buf bytes.Buffer
	if !WriteDiff(&buf, diffs) || strings.Count(buf.String(), "REGRESSION") != 2 {
		t.Errorf("report does not mark exactly the two regressed cells:\n%s", buf.String())
	}
	if WriteDiff(io.Discard, Diff(baseline, baseline, 1.0, 0.25)) {
		t.Errorf("identical snapshots flagged as regression")
	}
}

// TestTrajectoryOrdersByPRNumber: BENCH_10 comes after BENCH_9, files that
// are not v2 are named and skipped, and only default-configuration entries
// of the requested cell print.
func TestTrajectoryOrdersByPRNumber(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, entries ...Entry) string {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, NewFile(entries)); err != nil {
			t.Fatal(err)
		}
		return path
	}
	id := "T2.4/rel/Delta"
	paths := []string{
		write("BENCH_10.json", cell(id, Config{P: 1, Opt: 1, Ix: 0}, 9e6, 9), cell(id, Default, 10e6, 10)),
		write("BENCH_baseline.json", cell(id, Default, 99e6, 99)),
		write("BENCH_9.json", cell(id, Default, 9e6, 9), cell("T2.4/rel/Naive", Default, 1, 1)),
		write("BENCH_3.json", cell("T2.1/rel/Delta", Default, 3e6, 3)), // cell absent: no line
	}
	v1 := filepath.Join(dir, "BENCH_1.json")
	os.WriteFile(v1, []byte(`{"schema": "ifpxq-bench/v1", "entries": []}`), 0o644)
	paths = append(paths, v1)

	var out, skipped bytes.Buffer
	WriteTrajectory(&out, &skipped, id, paths)
	var files []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		files = append(files, strings.Fields(line)[0])
	}
	if want := []string{"BENCH_9.json", "BENCH_10.json", "BENCH_baseline.json"}; !reflect.DeepEqual(files, want) {
		t.Errorf("trajectory lines %v, want %v\n%s", files, want, out.String())
	}
	if !strings.Contains(skipped.String(), "BENCH_1.json") || !strings.Contains(skipped.String(), "ifpxq-bench/v1") {
		t.Errorf("v1 file not reported as skipped: %q", skipped.String())
	}
}
