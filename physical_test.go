package ifpxq

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/xmlgen"
)

// work is one fixpoint site's physical work over an evaluation: the nodes
// fed back (a Table 2 counter), the fed nodes answered from a table, and
// the nodes the body was evaluated on.
type work struct{ fed, hits, inputs int64 }

// TestPhysicalWorkPinned pins what tabling does on the four Table 2
// queries at small sizes: per site, on both engines, under auto, forced
// Naïve and forced Delta, the nodes fed back, the table hits and the body
// inputs. A change to how certified sites are tabled that moves any of
// them, even with the same results, fails here; an intended move updates
// the table below and says why. curriculum-outer's body reads the
// enclosing for's variable: certified, but not iteration-free on the
// relational engine and bound afresh in every interpreter execution, so
// its only hits are the res − ∆ of a tabled Naïve site.
func TestPhysicalWorkPinned(t *testing.T) {
	queries := []struct{ name, query, uri, xml string }{
		{"bidder", bench.BidderNetworkQuery, "auction.xml", xmlgen.Auction(xmlgen.FromScale(0.0005))},
		{"dialogs", bench.DialogsQuery, "play.xml",
			xmlgen.Play(xmlgen.PlayConfig{Acts: 1, ScenesPerAct: 2, SpeechesPerScene: 20, MaxDialogRun: 6, Seed: 3})},
		{"curriculum", bench.CurriculumQuery, "curriculum.xml", xmlgen.Curriculum(xmlgen.CurriculumSized(60))},
		{"hospital", bench.HospitalQuery, "hospital.xml", xmlgen.Hospital(xmlgen.HospitalSized(300))},
		{"curriculum-outer", `for $c in doc("curriculum.xml")/curriculum/course
return count(with $x seeded by $c recurse ($x/id(./prerequisites/pre_code) | $c))`,
			"curriculum.xml", xmlgen.Curriculum(xmlgen.CurriculumSized(60))},
	}
	engines := map[Engine]string{EngineInterpreter: "interp", EngineRelational: "rel"}
	modes := map[Mode]string{ModeAuto: "auto", ModeNaive: "naive", ModeDelta: "delta"}
	for _, q := range queries {
		for engine, en := range engines {
			for mode, mn := range modes {
				key := q.name + "/" + en + "/" + mn
				res, err := EvalString(q.query, Options{Engine: engine, Mode: mode,
					Docs: DocsFromStrings(map[string]string{q.uri: q.xml})})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				var got []work
				for _, fp := range res.Fixpoints {
					got = append(got, work{fp.Stats.NodesFedBack, fp.TableHits, fp.BodyInputs()})
				}
				if want := pinnedWork[key]; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: sites did %v, want %v", key, got, want)
				}
			}
		}
	}
}

// pinnedWork is what each site did at the commit the table was taken on:
// {nodes fed back, table hits, body inputs}.
var pinnedWork = map[string][]work{
	"bidder/interp/auto":            {{60, 35, 25}},
	"bidder/interp/delta":           {{60, 35, 25}},
	"bidder/interp/naive":           {{113, 0, 113}},
	"bidder/rel/auto":               {{60, 48, 12}},
	"bidder/rel/delta":              {{60, 48, 12}},
	"bidder/rel/naive":              {{125, 113, 12}},
	"dialogs/interp/auto":           {{40, 0, 40}},
	"dialogs/interp/delta":          {{40, 0, 40}},
	"dialogs/interp/naive":          {{134, 0, 134}},
	"dialogs/rel/auto":              {{40, 0, 40}},
	"dialogs/rel/delta":             {{40, 0, 40}},
	"dialogs/rel/naive":             {{134, 94, 40}},
	"curriculum/interp/auto":        {{337, 269, 68}},
	"curriculum/interp/delta":       {{337, 269, 68}},
	"curriculum/interp/naive":       {{469, 0, 469}},
	"curriculum/rel/auto":           {{337, 277, 60}},
	"curriculum/rel/delta":          {{337, 277, 60}},
	"curriculum/rel/naive":          {{611, 551, 60}},
	"hospital/interp/auto":          {{20, 0, 20}},
	"hospital/interp/delta":         {{20, 0, 20}},
	"hospital/interp/naive":         {{42, 0, 42}},
	"hospital/rel/auto":             {{20, 0, 20}},
	"hospital/rel/delta":            {{20, 0, 20}},
	"hospital/rel/naive":            {{42, 22, 20}},
	"curriculum-outer/interp/auto":  {{397, 0, 397}},
	"curriculum-outer/interp/delta": {{397, 0, 397}},
	"curriculum-outer/interp/naive": {{574, 0, 574}},
	"curriculum-outer/rel/auto":     {{397, 0, 397}},
	"curriculum-outer/rel/delta":    {{397, 0, 397}},
	"curriculum-outer/rel/naive":    {{791, 394, 397}},
}
