package ifpxq

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xmlgen"
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

// TestReentrantSiteMatchesAcrossModes: core hands each execution of a site
// its own res from the site's free list. A declared recursive function
// re-enters its own `with … recurse` site from inside the body, while the
// outer execution's res is live, so a nested execution that received it
// would corrupt the outer result. The body adds `. | reach(.)` for every
// prerequisite that has prerequisites of its own, which is a subset of
// the closure, so on an acyclic curriculum every mode must answer the
// plain closure byte for byte: Naïve, Delta without a table (the body
// reads $k, bound afresh by every call) and tabled Delta (auto on a body
// that reads no outer variable, whose later executions hit the table).
func TestReentrantSiteMatchesAcrossModes(t *testing.T) {
	// Course i requires i+1, and every third course also i+3: nested
	// executions start in every round, not only in the seeding one, where
	// res is emptied after the body anyway.
	var dag strings.Builder
	dag.WriteString(`<!DOCTYPE curriculum [<!ELEMENT curriculum (course)*><!ATTLIST course code ID #REQUIRED>]><curriculum>`)
	for i := 1; i <= 9; i++ {
		fmt.Fprintf(&dag, `<course code="c%d"><prerequisites>`, i)
		if i < 9 {
			fmt.Fprintf(&dag, `<pre_code>c%d</pre_code>`, i+1)
		}
		if i%3 == 0 && i+3 <= 9 {
			fmt.Fprintf(&dag, `<pre_code>c%d</pre_code>`, i+3)
		}
		dag.WriteString(`</prerequisites></course>`)
	}
	dag.WriteString(`</curriculum>`)
	docs := DocsFromStrings(map[string]string{"dag.xml": dag.String()})
	const closure = `for $c in doc("dag.xml")/curriculum/course
return string-join((with $x seeded by $c recurse $x/id(./prerequisites/pre_code))/@code/string(), " ")`
	want, err := EvalString(closure, Options{Engine: EngineInterpreter, Mode: ModeNaive, Docs: docs})
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"untabled": `declare function reach($c as node(), $k as xs:string) as node()* {
  with $x seeded by $c
  recurse $x/id(./prerequisites/pre_code)[@code != $k]/(if (exists(prerequisites/pre_code)) then (. | reach(., $k)) else .)
};
for $c in doc("dag.xml")/curriculum/course return string-join(reach($c, "none")/@code/string(), " ")`,
		"tabled": `declare function reach($c as node()) as node()* {
  with $x seeded by $c
  recurse $x/id(./prerequisites/pre_code)/(if (exists(prerequisites/pre_code)) then (. | reach(.)) else .)
};
for $c in doc("dag.xml")/curriculum/course return string-join(reach($c)/@code/string(), " ")`,
	}
	for name, q := range queries {
		for _, mode := range []Mode{ModeNaive, ModeDelta, ModeAuto} {
			got, err := EvalString(q, Options{Engine: EngineInterpreter, Mode: mode, Docs: docs})
			if err != nil {
				t.Fatalf("%s mode %d: %v", name, mode, err)
			}
			if got.String() != want.String() {
				t.Fatalf("%s mode %d:\n got %s\nwant %s", name, mode, got, want)
			}
			if len(got.Fixpoints) != 1 {
				t.Fatalf("%s mode %d: %d sites, want 1", name, mode, len(got.Fixpoints))
			}
			site := got.Fixpoints[0]
			if site.Executions <= 9 {
				t.Fatalf("%s mode %d: %d executions, want nested ones beyond the 9 calls", name, mode, site.Executions)
			}
			if tabled := site.TableHits > 0; tabled != (name == "tabled" && mode != ModeNaive) {
				t.Fatalf("%s mode %d: %d table hits", name, mode, site.TableHits)
			}
		}
	}
}

// TestRepeatedRelationalSiteMatchesInterpreter: on the relational engine a
// µ under a `for` runs once for all iterations, and a µ inside another µ's
// body runs once per outer round, each execution taking the res the last
// one released. Both must answer as the interpreter does, which executes
// the inner site once per binding and per round.
func TestRepeatedRelationalSiteMatchesInterpreter(t *testing.T) {
	docs := DocsFromStrings(map[string]string{
		"dag.xml": xmlgen.Curriculum(xmlgen.CurriculumConfig{Courses: 40, MaxPrereqs: 3, CycleFraction: 0.2, Seed: 9}),
	})
	for _, q := range []string{
		`for $c in doc("dag.xml")/curriculum/course
return count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code))`,
		`for $c in doc("dag.xml")/curriculum/course[position() <= 10]
return count(with $y seeded by $c
             recurse (with $x seeded by $y/id(./prerequisites/pre_code) recurse $x/id(./prerequisites/pre_code)))`,
	} {
		for _, mode := range []Mode{ModeNaive, ModeDelta, ModeAuto} {
			want, err := EvalString(q, Options{Engine: EngineInterpreter, Mode: mode, Docs: docs})
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvalString(q, Options{Engine: EngineRelational, Mode: mode, Docs: docs})
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("mode %d: relational\n%s\ninterpreter\n%s\nquery %s", mode, got, want, q)
			}
			if runs := got.Fixpoints[len(got.Fixpoints)-1].Executions; len(got.Fixpoints) == 2 && runs < 2 {
				t.Fatalf("mode %d: the inner relational site ran %d times", mode, runs)
			}
		}
	}
}
