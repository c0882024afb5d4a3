package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		docs1, reqs1 := w.build(7)
		docs2, reqs2 := w.build(7)
		if !reflect.DeepEqual(docs1, docs2) || !reflect.DeepEqual(reqs1, reqs2) {
			t.Errorf("%s: seed 7 built different inputs twice", w.name)
		}
		docs3, _ := w.build(8)
		if reflect.DeepEqual(docs1, docs3) {
			t.Errorf("%s: seeds 7 and 8 built identical documents", w.name)
		}
	}
}

func TestRelabelKeepsReferences(t *testing.T) {
	in := `<a id="p0"/><a id="p1" ref="p0"/><a id="p2" ref="p1"/><name>p</name><ap0/>`
	out := relabel(in, "p", 3)
	f := strings.Split(out, `"`)
	// f[1], f[3], f[5], f[7], f[9] are id0, id1, ref0, id2, ref1.
	if f[1] != f[5] || f[3] != f[9] || f[1] == f[3] || f[3] == f[7] || f[1] == f[7] {
		t.Errorf("references broken: %s", out)
	}
	if !strings.HasSuffix(out, `<name>p</name><ap0/>`) {
		t.Errorf("relabelled text that is not a whole token: %s", out)
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 40}, // nested child with its own child
		{ID: 2, Parent: 1, StartNs: 20, EndNs: 30},
		{ID: 3, Parent: 0, StartNs: 30, EndNs: 60},  // overlaps span 1 on [30,40)
		{ID: 4, Parent: 0, StartNs: 35, EndNs: 38},  // inside the overlap
		{ID: 5, Parent: 0, StartNs: 90, EndNs: 120}, // runs past its parent
		{ID: 6, Parent: -1, StartNs: 200, EndNs: 250},
	}
	want := []int64{40, 20, 10, 30, 3, 30, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestEveryOperatorKindHasAClass(t *testing.T) {
	kinds := 0
	for k := algebra.OpKind(0); k.String() != ""; k++ {
		kinds++
		if _, ok := opClass[k]; !ok {
			t.Errorf("operator kind %v has no class in opClass", k)
		}
	}
	if kinds != len(opClass) {
		t.Errorf("opClass lists %d kinds, algebra has %d", len(opClass), kinds)
	}
}

func TestOutcomeCheck(t *testing.T) {
	want := outcome{SHA256: digest("<a/>"), Count: 1, Sites: []siteOutcome{{Depth: 3, NodesFed: 9}}}
	ok := []fixpoint{{Algorithm: "Delta", Depth: 3, NodesFed: 4}}
	if err := want.check("<a/>", 1, ok); err != nil {
		t.Errorf("correct Delta reply rejected: %v", err)
	}
	for name, c := range map[string]struct {
		result string
		count  int
		sites  []fixpoint
	}{
		"result":      {"<b/>", 1, ok},
		"count":       {"<a/>", 2, ok},
		"depth":       {"<a/>", 1, []fixpoint{{Algorithm: "Delta", Depth: 2}}},
		"naive feeds": {"<a/>", 1, []fixpoint{{Algorithm: "Naive", Depth: 3, NodesFed: 4}}},
		"sites":       {"<a/>", 1, nil},
	} {
		if err := want.check(c.result, c.count, c.sites); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
}

func TestPauseNsSince(t *testing.T) {
	ring := make([]float64, 256)
	for i := range ring {
		ring[i] = 1
	}
	// Collections 257..259 overwrote slots 0..2 (slot = (n-1) % 256).
	ring[0], ring[1], ring[2] = 10, 20, 30
	now := memStats{numGC: 259, pauseNs: ring}
	if got := now.pauseNsSince(memStats{numGC: 257}); got != 50 {
		t.Errorf("two collections = %g ns, want 50", got)
	}
	if got := now.pauseNsSince(memStats{numGC: 255}); got != 61 {
		t.Errorf("four collections across the wrap = %g ns, want 61", got)
	}
	sum := 253.0 + 60
	if got := now.pauseNsSince(memStats{numGC: 259 - 512}); got != 2*sum {
		t.Errorf("512 collections = %g ns, want the ring twice, %g", got, 2*sum)
	}
}

// BENCHMARK.json at the repository root is the contract the driver reads;
// the names, units, directions and bounds in it must be the ones this
// package prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != gateSeconds {
		t.Errorf("run_seconds %d, gateSeconds %d", spec.RunSeconds, gateSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), here %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(defs))
		}
		for i, d := range defs {
			if want := (metric{d.name, d.unit, d.better, d.bound}); got[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, here %+v", kind, i, got[i], want)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs)
	same("per_layer", spec.PerLayer, perLayerDefs)
}
