package bench

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// CellDiff is the comparison of one cell at one configuration.
type CellDiff struct {
	ID string
	Config
	BaseNs       float64
	CurNs        float64
	BaseAllocs   int64
	CurAllocs    int64
	NsRatio      float64 // cur/base
	AllocsRatio  float64 // cur/base
	NsRegressed  bool
	AllocsRegred bool
	// BaseInputs and CurInputs are the cell's body_inputs. A count is a
	// deterministic property of the code, so any change fails the gate
	// (InputsChanged) until the baseline is refreshed on purpose.
	BaseInputs    int64
	CurInputs     int64
	InputsChanged bool
}

// Regressed reports whether a gated metric exceeded its tolerance or a
// gated count changed.
func (d CellDiff) Regressed() bool { return d.NsRegressed || d.AllocsRegred || d.InputsChanged }

// cellKey identifies an entry within a snapshot: the same id at ix=0 and
// at ix=1 is two cells.
type cellKey struct {
	id string
	Config
}

// Diff compares the cells present in both snapshots, matched on (id, p,
// opt, ix), and flags regressions beyond the tolerances. Tolerances are
// relative: 0.25 fails a cell whose current value exceeds baseline × 1.25.
// body_inputs gates exactly, wherever the baseline recorded it. Cells
// present in only one file are skipped: the gate protects tracked cells,
// it does not freeze the cell set.
func Diff(baseline, current File, nsTolerance, allocsTolerance float64) []CellDiff {
	base := make(map[cellKey]Entry, len(baseline.Entries))
	for _, e := range baseline.Entries {
		base[cellKey{e.ID, e.Config}] = e
	}
	var out []CellDiff
	for _, cur := range current.Entries {
		b, ok := base[cellKey{cur.ID, cur.Config}]
		if !ok {
			continue
		}
		d := CellDiff{
			ID:         cur.ID,
			Config:     cur.Config,
			BaseNs:     b.NsOp,
			CurNs:      cur.NsOp,
			BaseAllocs: b.AllocsOp,
			CurAllocs:  cur.AllocsOp,
			BaseInputs: b.BodyInputs,
			CurInputs:  cur.BodyInputs,
		}
		d.InputsChanged = b.BodyInputs != 0 && cur.BodyInputs != b.BodyInputs
		if b.NsOp > 0 {
			d.NsRatio = cur.NsOp / b.NsOp
			d.NsRegressed = d.NsRatio > 1+nsTolerance
		}
		if b.AllocsOp > 0 {
			d.AllocsRatio = float64(cur.AllocsOp) / float64(b.AllocsOp)
			d.AllocsRegred = d.AllocsRatio > 1+allocsTolerance
		}
		out = append(out, d)
	}
	return out
}

// WriteDiff renders the comparison as a fixed-width report and returns
// whether any cell regressed.
func WriteDiff(w io.Writer, diffs []CellDiff) bool {
	regressed := false
	fmt.Fprintf(w, "%-20s %-16s %12s %12s %8s %11s %10s %8s %12s\n",
		"cell", "config", "base ms", "cur ms", "Δns", "base allocs", "cur allocs", "Δallocs", "body inputs")
	for _, d := range diffs {
		mark, inputs := "", fmt.Sprint(d.CurInputs)
		if d.InputsChanged {
			mark, inputs = "  << BODY INPUTS CHANGED", fmt.Sprintf("%d→%d", d.BaseInputs, d.CurInputs)
		}
		if d.NsRegressed || d.AllocsRegred {
			mark = "  << REGRESSION"
		}
		regressed = regressed || d.Regressed()
		fmt.Fprintf(w, "%-20s %-16s %12.2f %12.2f %+7.1f%% %11d %10d %+7.1f%% %12s%s\n",
			d.ID, d.Label(), d.BaseNs/1e6, d.CurNs/1e6, (d.NsRatio-1)*100,
			d.BaseAllocs, d.CurAllocs, (d.AllocsRatio-1)*100, inputs, mark)
	}
	return regressed
}

// prNumber extracts N from a BENCH_<N>.json path; files named otherwise
// (BENCH_baseline.json) sort after every numbered one.
func prNumber(path string) int {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	n, err := strconv.Atoi(strings.TrimPrefix(name, "BENCH_"))
	if err != nil {
		return math.MaxInt
	}
	return n
}

// WriteTrajectory prints one cell across PRs: one line per snapshot that
// holds id at the default configuration, ordered by PR number (BENCH_10
// after BENCH_9). Files that are not v2 snapshots — the frozen v1 records —
// are named on skipped and passed over.
func WriteTrajectory(w, skipped io.Writer, id string, paths []string) {
	paths = append([]string(nil), paths...)
	sort.SliceStable(paths, func(i, j int) bool { return prNumber(paths[i]) < prNumber(paths[j]) })
	fmt.Fprintf(w, "%-22s %12s %12s %12s %10s %6s\n", id, "ms/op", "MB/op", "allocs/op", "nodes fed", "depth")
	for _, path := range paths {
		f, err := ReadFile(path)
		if err != nil {
			fmt.Fprintf(skipped, "skipping %v\n", err)
			continue
		}
		for _, e := range f.Entries {
			if e.ID == id && e.Config == Default {
				fmt.Fprintf(w, "%-22s %12.2f %12.1f %12d %10d %6d\n", filepath.Base(path),
					e.NsOp/1e6, float64(e.BytesOp)/1e6, e.AllocsOp, e.NodesFed, e.Depth)
			}
		}
	}
}
