package ifpxq

import (
	"testing"

	"repro/internal/xdm"
)

// evalFixpoints evaluates src over one in-memory document t.xml and
// returns the per-site fixpoint stats.
func evalFixpoints(t *testing.T, src, xml string, engine Engine, mode Mode) []FixpointStats {
	t.Helper()
	res, err := EvalString(src, Options{
		Engine: engine, Mode: mode,
		Docs: DocsFromStrings(map[string]string{"t.xml": xml}),
	})
	if err != nil {
		t.Fatalf("engine %d mode %d: %v", engine, mode, err)
	}
	return res.Fixpoints
}

var bothEngines = []Engine{EngineInterpreter, EngineRelational}

// TestFixpointsInFirstExecutionOrder: Result.Fixpoints lists sites in the
// order they first execute — source order for siblings — on both engines.
// The sites are named so that sorting by variable, or by nodes fed back,
// would put the second first.
func TestFixpointsInFirstExecutionOrder(t *testing.T) {
	const xml = `<r><a id="1"><b/></a><a id="2"><b><b><b/></b></b></a></r>`
	const src = `(with $z seeded by doc("t.xml")//a[@id = "1"] recurse $z/b,
 with $a seeded by doc("t.xml")//a[@id = "2"] recurse $a/b)`
	for _, engine := range bothEngines {
		for _, mode := range []Mode{ModeNaive, ModeDelta} {
			fps := evalFixpoints(t, src, xml, engine, mode)
			if len(fps) != 2 {
				t.Fatalf("engine %d mode %d: %d sites, want 2", engine, mode, len(fps))
			}
			if fps[0].Stats.Depth != 1 || fps[1].Stats.Depth != 3 {
				t.Errorf("engine %d mode %d: depths %d, %d; want the $z site (1) before the $a site (3)",
					engine, mode, fps[0].Stats.Depth, fps[1].Stats.Depth)
			}
			if fps[0].Stats.NodesFedBack >= fps[1].Stats.NodesFedBack {
				t.Errorf("engine %d mode %d: fed %d, %d; the first site feeds fewer nodes",
					engine, mode, fps[0].Stats.NodesFedBack, fps[1].Stats.NodesFedBack)
			}
		}
	}
}

// TestNestedSiteDepthIsMaxOverExecutions: a site executed several times
// reports the deepest execution, on both engines. The inner site runs once
// per outer round with depths 1, 3 and 0.
func TestNestedSiteDepthIsMaxOverExecutions(t *testing.T) {
	const xml = `<r><a id="2"><b/></a><c><a id="1"><b><b><b/></b></b></a></c></r>`
	const src = `with $y seeded by doc("t.xml")/r
recurse ($y/c | (with $x seeded by $y/a recurse $x/b))`
	for _, engine := range bothEngines {
		for _, mode := range []Mode{ModeNaive, ModeDelta} {
			var inner []FixpointStats
			for _, fp := range evalFixpoints(t, src, xml, engine, mode) {
				if fp.Executions == 3 {
					inner = append(inner, fp)
				}
			}
			if len(inner) != 1 || inner[0].Stats.Depth != 3 {
				t.Errorf("engine %d mode %d: sites executed three times %+v, want one of depth 3", engine, mode, inner)
			}
		}
	}
}

// TestFixpointsReportOwnCertificate: each site reports its own
// distributivity certificate — the relational engine's extended algebraic
// verdict, the interpreter's syntactic one — not one shared by the query.
func TestFixpointsReportOwnCertificate(t *testing.T) {
	const xml = `<r><a><b><b/></b></a></r>`
	const src = `(with $x seeded by doc("t.xml")//a recurse $x/b,
 with $y seeded by doc("t.xml")//a recurse (if (count($y) > 100) then () else $y/b))`
	reps := MustParse(src).Distributivity()
	if len(reps) != 2 {
		t.Fatalf("%d distributivity reports, want 2", len(reps))
	}
	for _, engine := range bothEngines {
		for _, mode := range []Mode{ModeAuto, ModeNaive} {
			fps := evalFixpoints(t, src, xml, engine, mode)
			if len(fps) != 2 {
				t.Fatalf("engine %d mode %d: %d sites, want 2", engine, mode, len(fps))
			}
			for i, fp := range fps {
				want := reps[i].Syntactic
				if engine == EngineRelational {
					want = reps[i].AlgebraicExt
				}
				if fp.Distributive != want || fp.Distributive != (i == 0) {
					t.Errorf("engine %d mode %d site %d: distributive=%v, report %+v",
						engine, mode, i, fp.Distributive, reps[i])
				}
			}
		}
	}
}

// TestConstructorBodiesNeverConverge: a body that constructs a node mints a
// fresh one every round, so `recurse <b/>` has no fixpoint even though it
// does not read $x. Both engines re-apply the constructor every round and
// end on the round budget in every mode and at both optimizer levels; a
// body that constructs only while a condition holds converges on both.
func TestConstructorBodiesNeverConverge(t *testing.T) {
	q := MustParse(`count(with $x seeded by <a/> recurse <b/>)`)
	for _, engine := range bothEngines {
		for _, mode := range []Mode{ModeNaive, ModeDelta, ModeAuto} {
			for _, level := range []OptLevel{Opt0, Opt1} {
				_, err := q.Eval(Options{Engine: engine, Mode: mode, Opt: level, MaxRounds: 50})
				if xdm.CodeOf(err) != xdm.ErrRounds {
					t.Errorf("engine %d mode %d opt %d: got %v, want %s", engine, mode, level, err, xdm.ErrRounds)
				}
			}
		}
	}
	bounded := MustParse(`count(with $x seeded by <a/> recurse if (count($x) < 3) then <b/> else ())`)
	for _, engine := range bothEngines {
		res, err := bounded.Eval(Options{Engine: engine, Mode: ModeNaive, MaxRounds: 50})
		if err != nil {
			t.Fatalf("engine %d: bounded constructor body: %v", engine, err)
		}
		if got := res.String(); got != "3" {
			t.Errorf("engine %d: bounded constructor body = %s, want 3", engine, got)
		}
	}
}

// TestNaiveNodesFedAcrossEngines pins a known divergence (ROADMAP 4(b),
// EXPERIMENTS.md "Engine divergences"): one relational µ execution iterates
// every live iteration at once and re-feeds iterations that already
// converged until the slowest one does, while the interpreter stops each
// binding's fixpoint on its own. Naïve nodes fed back therefore differ;
// Delta agrees, because a converged iteration's ∆ is empty.
func TestNaiveNodesFedAcrossEngines(t *testing.T) {
	const xml = `<r><a><b><b><b/></b></b></a><a><b/></a></r>`
	const src = `for $a in doc("t.xml")//a return with $x seeded by $a recurse $x/b`
	want := map[Mode][2]int64{ModeNaive: {9, 11}, ModeDelta: {6, 6}}
	for mode, fed := range want {
		for i, engine := range bothEngines {
			fps := evalFixpoints(t, src, xml, engine, mode)
			if len(fps) != 1 || fps[0].Stats.NodesFedBack != fed[i] {
				t.Errorf("engine %d mode %d: fixpoints %+v, want one site feeding %d nodes", engine, mode, fps, fed[i])
			}
		}
	}
}
