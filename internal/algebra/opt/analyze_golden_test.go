package opt_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	ifpxq "repro"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/xmlgen"
)

// durRE matches every duration the analyze renderer emits (fmtNs uses a
// single ns/µs/ms/s suffix, never time.Duration's compound forms), so one
// substitution makes the rendering deterministic. Everything else — row
// counts, gathers, alloc estimates, round tables — is pinned exactly: the
// generators are seeded and the golden cells run sequentially.
var durRE = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b`)

// analyzeGoldens runs the paper's four query families through EXPLAIN
// ANALYZE on deliberately tiny seeded instances: large enough for several
// fixpoint rounds, small enough that the per-round tables stay readable.
var analyzeGoldens = []struct {
	name  string
	query string
	uri   string
	xml   func() string
}{
	{"bidder", bench.BidderNetworkQuery, "auction.xml", func() string {
		return xmlgen.Auction(xmlgen.AuctionConfig{
			People: 12, OpenAuctions: 8, MaxBiddersPerAuction: 3, Seed: 42})
	}},
	{"dialogs", bench.DialogsQuery, "play.xml", func() string {
		return xmlgen.Play(xmlgen.PlayConfig{
			Acts: 1, ScenesPerAct: 2, SpeechesPerScene: 8, MaxDialogRun: 5, Seed: 3})
	}},
	{"curriculum", bench.CurriculumQuery, "curriculum.xml", func() string {
		return xmlgen.Curriculum(xmlgen.CurriculumConfig{
			Courses: 30, MaxPrereqs: 2, CycleFraction: 0.1, Seed: 7})
	}},
	{"hospital", bench.HospitalQuery, "hospital.xml", func() string {
		return xmlgen.Hospital(xmlgen.HospitalConfig{
			Patients: 40, Depth: 4, DiseaseFraction: 0.3, Seed: 11})
	}},
}

func renderAnalyze(t *testing.T, query, uri, xml string) string {
	t.Helper()
	q, err := ifpxq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := q.Analyze(ifpxq.Options{
		Engine: ifpxq.EngineRelational,
		Docs:   ifpxq.DocsFromStrings(map[string]string{uri: xml}),
		Trace:  obs.NewTrace("golden"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return durRE.ReplaceAllString(rep.Render(), "<t>")
}

// TestGoldenAnalyze pins the full EXPLAIN ANALYZE rendering — phase list,
// optimized plan annotated with inferred properties AND measured actuals,
// and the per-round fixpoint tables — for each paper query family.
// Regenerate deliberately with
// `go test -run TestGoldenAnalyze -update ./internal/algebra/opt`.
func TestGoldenAnalyze(t *testing.T) {
	for _, g := range analyzeGoldens {
		t.Run(g.name, func(t *testing.T) {
			got := renderAnalyze(t, g.query, g.uri, g.xml())
			path := filepath.Join("testdata", g.name+".analyze.golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("analyze rendering changed for %s (run `go test -run TestGoldenAnalyze -update ./internal/algebra/opt` to accept):\n--- got ---\n%s\n--- want ---\n%s",
					g.name, got, string(want))
			}
		})
	}
}

// TestGoldenAnalyzeCoversMarkers pins that the analyze goldens exercise
// what they exist to guard: per-operator actuals on the optimized plan,
// inferred properties next to them, per-round fixpoint spans, and the
// merged phase breakdown.
func TestGoldenAnalyzeCoversMarkers(t *testing.T) {
	g := analyzeGoldens[0]
	out := renderAnalyze(t, g.query, g.uri, g.xml())
	for _, want := range []string{
		"phase parse", "phase compile", "phase optimize", "phase store-resolve", "phase exec",
		"calls=", "out=", "gathers=", "mem~", // measured actuals
		"key=",          // optimizer-inferred properties on the same lines
		"fixpoint site", // per-site round tables
		"round 1: fed=",
		"result: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bidder analyze golden misses %q:\n%s", want, out)
		}
	}
}
