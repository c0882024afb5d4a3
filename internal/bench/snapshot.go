package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// SnapshotSchema identifies the BENCH_<n>.json file layout. v2 carries a
// cell's configuration in entry fields; v1 spelled it in name suffixes
// (…/p=N, …/O=N, …/ix=N) and survives only in the frozen records
// BENCH_1, BENCH_2 and BENCH_8, which no tool reads.
const SnapshotSchema = "ifpxq-bench/v2"

// Config is one point on the oracle axes a cell can be measured along.
// Every axis leaves results, nodes fed back and depth unchanged.
type Config struct {
	// P is the fixpoint worker-pool width the cell was measured at. Every
	// evaluation is sequential now, so new entries always carry 1; the
	// field stays so BENCH_3 and BENCH_17's p>1 arms remain distinct cells.
	P   int `json:"p"`
	Opt int `json:"opt"` // 0 = the compiler's verbatim relational plan, 1 = optimized
	Ix  int `json:"ix"`  // 0 = every step walks the arena, 1 = name-index probes allowed
}

// Default is the production configuration, the one every committed
// trajectory cell and every benchmark/ workload runs at.
var Default = Config{P: 1, Opt: 1, Ix: 1}

func (c Config) Label() string { return fmt.Sprintf("p=%d opt=%d ix=%d", c.P, c.Opt, c.Ix) }

// Vary is ifpbench's one sweep axis, `-vary key=v1[,v2…]` with key opt or
// ix: one axis per run, every other setting at its default.
type Vary struct {
	Key    string
	Values []int
}

func (v *Vary) String() string {
	if v == nil || v.Key == "" {
		return "" // the flag package calls String on a zero Vary
	}
	return fmt.Sprintf("%s=%v", v.Key, v.Values)
}

// Set parses key=v1[,v2…]. A second -vary is rejected: two axes in one run
// would be a grid, and the snapshot would no longer read as one table.
func (v *Vary) Set(s string) error {
	if v.Key != "" {
		return fmt.Errorf("one axis per run (already varying %s)", v.Key)
	}
	key, list, ok := strings.Cut(s, "=")
	if !ok || list == "" {
		return fmt.Errorf("want key=v1[,v2…] with key opt or ix")
	}
	if key != "opt" && key != "ix" {
		return fmt.Errorf("unknown key %q (want opt or ix)", key)
	}
	var values []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		switch {
		case err != nil:
			return fmt.Errorf("bad value %q for %s", part, key)
		case n != 0 && n != 1:
			return fmt.Errorf("bad value %d for %s (want 0 or 1)", n, key)
		}
		values = append(values, n)
	}
	v.Key, v.Values = key, values
	return nil
}

// Configs lists the configurations the axis selects: Default alone when
// nothing is varied.
func (v *Vary) Configs() []Config {
	if v.Key == "" {
		return []Config{Default}
	}
	var out []Config
	for _, n := range v.Values {
		c := Default
		if v.Key == "opt" {
			c.Opt = n
		} else {
			c.Ix = n
		}
		out = append(out, c)
	}
	return out
}

// Entry is one measured cell in a snapshot file — the schema shared by the
// checked-in BENCH_<n>.json trajectory files, the committed CI baseline
// (BENCH_baseline.json), and the per-PR snapshot benchdiff compares
// against it. (ID, Config) identifies an entry within a file.
type Entry struct {
	ID     string `json:"id"`  // exp/engine/alg, e.g. "T2.4/rel/Delta"
	Exp    string `json:"exp"` // Table 2 row, e.g. "T2.4"
	Engine string `json:"engine"`
	Alg    string `json:"alg"`
	Config
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
	NodesFed int64   `json:"nodes_fed"`
	Depth    int     `json:"depth"`
	// ResultLen is the length of the query's result sequence; absent in
	// files converted from v1.
	ResultLen int `json:"result_len,omitempty"`
	// BodyInputs is the nodes (keys, on the relational engine) the fixpoint
	// body was evaluated on: below nodes_fed where a tabled site answered
	// fed nodes from earlier applications. Arms need not agree on it;
	// benchdiff gates it exactly. Absent in files written before it was
	// recorded.
	BodyInputs int64 `json:"body_inputs,omitempty"`
	// PhaseNs breaks the cell's last evaluation into traced pipeline
	// phases (cumulative ns by phase name). Absent in files written before
	// the trace API; benchdiff ignores it.
	PhaseNs map[string]int64 `json:"phase_ns,omitempty"`
}

// File is the snapshot/trajectory file layout.
type File struct {
	Schema    string  `json:"schema"`
	Generated string  `json:"generated"`
	Go        string  `json:"go"`
	Entries   []Entry `json:"entries"`
}

// NewFile stamps a snapshot with schema, time, and toolchain.
func NewFile(entries []Entry) File {
	return File{
		Schema:    SnapshotSchema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		Entries:   entries,
	}
}

// WriteFile marshals a snapshot to path (indented, trailing newline, the
// format the checked-in trajectory files use).
func WriteFile(path string, out File) error {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a snapshot.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != SnapshotSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, SnapshotSchema)
	}
	return f, nil
}
