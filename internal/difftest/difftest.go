// Package difftest is the differential fuzz harness for the fixpoint
// engines: from one integer seed it derives a random document (through
// internal/xmlgen, or valuesXML) and a random fixpoint, value-predicate
// or Regular XPath query, then
// checks that every evaluation strategy the repository offers — Naïve vs
// Delta (the paper's Figure 3 pair), tree-at-a-time vs relational, and
// verbatim (-O0) vs optimized (-O1) relational plans — produces
// byte-identical results and, within one engine and mode, identical
// instrumentation at every optimizer level. Calvanese et al.'s observation that fixpoint semantics admit many
// equivalent evaluation strategies is exactly what makes this harness
// decisive: any divergence is a bug in some engine, never in the query.
package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	ifpxq "repro"
	"repro/internal/xdm"
	"repro/internal/xmlgen"
)

// Case is one generated differential scenario.
type Case struct {
	Seed  int64
	URI   string
	XML   string
	Query string
	// RegularXPath marks context-item-driven cases (interpreter surface
	// only; still differential across modes).
	RegularXPath bool
}

// OptLevels are the relational plan-optimizer levels every case is
// evaluated at; the first must be the optimized default (the baseline
// configuration). The interpreter engine has no plan stage — the flag is a
// no-op there — so only the relational engine multiplies by this
// dimension; the -O0/-O1 parity the optimizer promises (byte-identical
// results AND identical fixpoint statistics) is checked per mode against
// the shared baseline.
var OptLevels = []ifpxq.OptLevel{ifpxq.Opt1, ifpxq.Opt0}

// Generate derives a case from a seed. Documents are kept small — tens to
// a few hundred nodes — so thousands of cases stay cheap.
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed}
	if seed%7 == 0 {
		// Every seventh seed compares values (valuesQuery), alternating
		// between its two shapes; every other seed keeps the case it has
		// always generated.
		c.URI, c.XML = "vals.xml", valuesXML(rng)
		c.Query = valuesQuery(rng, c.URI, seed%14 == 7)
		return c
	}
	switch rng.Intn(6) {
	case 0: // curriculum: fn:id closures over the prerequisite graph
		n := 15 + rng.Intn(50)
		cfg := xmlgen.CurriculumConfig{
			Courses:       n,
			MaxPrereqs:    1 + rng.Intn(3),
			CycleFraction: 0.3 * rng.Float64(),
			Seed:          rng.Int63(),
		}
		c.URI, c.XML = "curriculum.xml", xmlgen.Curriculum(cfg)
		switch rng.Intn(4) {
		case 3:
			// Numeric variable predicates: a position test per context node
			// on a step (distributive in $x) reading a global, the
			// enclosing for, or a local shadowing the global, and over the
			// whole sequence on a filter (not distributive).
			c.Query = fmt.Sprintf(`
declare variable $j := %d;
for $i in (%d, %d)
let $c := doc(%q)/curriculum/course[$i]
return (count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code[$j])),
        count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code[$i])),
        count(with $x seeded by $c recurse ($x/id(./prerequisites/pre_code))[$j]),
        for $j in (1, 2) return count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code[$j])))`,
				1+rng.Intn(3), 1+rng.Intn(n), 1+rng.Intn(n), c.URI)
		case 0:
			c.Query = fmt.Sprintf(`
for $c in doc(%q)/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`, c.URI)
		case 1:
			c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)//course[@code = "c%d"]
recurse $x/id(./prerequisites/pre_code))`, c.URI, rng.Intn(n))
		default:
			c.Query = fmt.Sprintf(`
for $y in (with $x seeded by doc(%q)/curriculum/course[@code = "c%d"]
           recurse $x/id(./prerequisites/pre_code))
return $y/@code/string()`, c.URI, rng.Intn(n))
		}
	case 1: // hospital: vertical recursion through nested pedigrees
		cfg := xmlgen.HospitalConfig{
			Patients:        30 + rng.Intn(120),
			Depth:           3 + rng.Intn(3),
			DiseaseFraction: 0.2 + 0.4*rng.Float64(),
			Seed:            rng.Int63(),
		}
		c.URI, c.XML = "hospital.xml", xmlgen.Hospital(cfg)
		body := `$x/parents/patient[diagnosis = "hd"]`
		if rng.Intn(2) == 0 {
			body = `$x/parents/patient`
		}
		if rng.Intn(2) == 0 {
			c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)/hospital/patient[diagnosis = "hd"]
recurse %s)`, c.URI, body)
		} else {
			c.Query = fmt.Sprintf(`
for $p in (with $x seeded by doc(%q)//patient[diagnosis = "hd"] recurse %s)
return $p/@id/string()`, c.URI, body)
		}
	case 2: // auction: the Figure 10 bidder network, scaled down
		cfg := xmlgen.AuctionConfig{
			People:               10 + rng.Intn(15),
			OpenAuctions:         4 + rng.Intn(10),
			MaxBiddersPerAuction: 2 + rng.Intn(3),
			Seed:                 rng.Int63(),
		}
		c.URI, c.XML = "auction.xml", xmlgen.Auction(cfg)
		prologue := fmt.Sprintf(`
declare variable $doc := doc(%q);
declare function bidder($in as node()*) as node()* {
  for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};`, c.URI)
		if rng.Intn(2) == 0 {
			c.Query = prologue + `
for $p in $doc//people/person
return <person>{ $p/@id }{ count(with $x seeded by $p recurse bidder($x)) }</person>`
		} else {
			c.Query = prologue + fmt.Sprintf(`
count(with $x seeded by $doc//person[@id = "person%d"] recurse bidder($x))`,
				rng.Intn(cfg.People))
		}
	case 3: // play: horizontal following-sibling recursion, and positional steps
		cfg := xmlgen.PlayConfig{
			Acts:             1,
			ScenesPerAct:     1 + rng.Intn(2),
			SpeechesPerScene: 10 + rng.Intn(15),
			MaxDialogRun:     3 + rng.Intn(6),
			Seed:             rng.Int63(),
		}
		c.URI, c.XML = "play.xml", xmlgen.Play(cfg)
		c.Query = fmt.Sprintf(`
(count(with $x seeded by doc(%q)//SPEECH[not(preceding-sibling::SPEECH[1]/SPEAKER != SPEAKER)]
 recurse for $s in $x
         return $s/following-sibling::SPEECH[1][SPEAKER != $s/SPEAKER]),
 %s)`, c.URI, positionalQuery(rng, c.URI))
	case 4: // wide tables and empty columns through the columnar executor
		n := 15 + rng.Intn(40)
		cfg := xmlgen.CurriculumConfig{
			Courses:       n,
			MaxPrereqs:    1 + rng.Intn(3),
			CycleFraction: 0.3 * rng.Float64(),
			Seed:          rng.Int63(),
		}
		c.URI, c.XML = "curriculum.xml", xmlgen.Curriculum(cfg)
		switch rng.Intn(3) {
		case 0:
			// Several live loop variables: the loop-lifted relation carries
			// one column per variable, so the fixpoint body runs over tables
			// far wider than iter|pos|item (the generic rowSet fallback).
			c.Query = fmt.Sprintf(`
for $a in (1, 2, 3), $b in (10, 20), $m in ("x", "yy")
for $c in doc(%q)/curriculum/course
where count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code)) >= $a
return ($a * $b, $m)`, c.URI)
		case 1:
			// Empty seed: zero-row (empty-column) tables flow through every
			// operator of the µ body without ever growing.
			c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)/curriculum/course[@code = "nosuchcourse"]
recurse $x/id(./prerequisites/pre_code))`, c.URI)
		default:
			// Recursion that dries up immediately: non-empty seed, empty
			// step results from round one on.
			c.Query = fmt.Sprintf(`
for $a in (1, 2), $c in doc(%q)/curriculum/course[@code = "c%d"]
return $a + count(with $x seeded by $c/prerequisites recurse $x/child::nosuch)`, c.URI, rng.Intn(n))
		}
	default: // Regular XPath closures (distributive by construction)
		cfg := xmlgen.HospitalConfig{
			Patients:        30 + rng.Intn(100),
			Depth:           3 + rng.Intn(3),
			DiseaseFraction: 0.2 + 0.4*rng.Float64(),
			Seed:            rng.Int63(),
		}
		c.URI, c.XML = "hospital.xml", xmlgen.Hospital(cfg)
		c.RegularXPath = true
		c.Query = "child::hospital/" + regularClosures[rng.Intn(len(regularClosures))]
	}
	return c
}

// valueForms are lexical forms of a small integer that all cast to the
// same xs:double but differ as strings, so a comparison against a number
// and one against a string or untyped value match different nodes.
var valueForms = []string{"%d", "%d.0", " %d ", "0%d", "%de0"}

// valuesXML builds a document of <v> elements, each with an n attribute
// and one or two <w> children holding small integers in varied lexical
// forms. Every value casts to xs:double, so comparing it with a number
// never fails on either engine.
func valuesXML(rng *rand.Rand) string {
	form := func() string {
		return fmt.Sprintf(valueForms[rng.Intn(len(valueForms))], rng.Intn(5))
	}
	var sb strings.Builder
	sb.WriteString("<vals>")
	for i, n := 0, 6+rng.Intn(15); i < n; i++ {
		fmt.Fprintf(&sb, `<v n="%s"><w>%s</w>`, form(), form())
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "<w>%s</w>", form())
		}
		sb.WriteString("</v>")
	}
	sb.WriteString("</vals>")
	return sb.String()
}

// valuesQuery draws a query over valuesXML whose value predicates sit on
// a step from the document — a candidate set that is the same in every
// iteration — inside a for loop (inLoop) or in fixpoint bodies: `path =
// $v` and `. = $v` in either operand order, which the relational engine
// joins on value, next to `!=` and positional predicates, which keep its
// crossed plan. The compared atoms mix numbers, strings and untyped
// values. Each shape also holds a fixpoint whose body reads only $x and
// steps from it, which the syntactic certificate accepts.
func valuesQuery(rng *rand.Rand, uri string, inLoop bool) string {
	atom := func() string {
		k := rng.Intn(5)
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprint(k)
		case 1:
			return fmt.Sprintf("%d.0", k)
		case 2:
			return fmt.Sprintf("%q", fmt.Sprintf(valueForms[rng.Intn(len(valueForms))], k))
		case 3:
			return fmt.Sprintf("doc(%q)//v[%d]/@n", uri, 1+rng.Intn(6))
		}
		return fmt.Sprintf("doc(%q)//v[%d]/w[1]", uri, 1+rng.Intn(6))
	}
	if !inLoop {
		return fmt.Sprintf(`
(count(with $x seeded by doc(%[1]q)//v[@n = %[2]s]
       recurse (doc(%[1]q)//v[@n = $x/w/(. + 0)], doc(%[1]q)//w[. = $x/@n]/..)),
 count(with $x seeded by doc(%[1]q)//v[w = %[3]s] recurse $x/following-sibling::v[w = %[4]s]))`,
			uri, atom(), atom(), atom())
	}
	return fmt.Sprintf(`
for $v in (%[2]s, %[3]s, %[4]s)
return (count(doc(%[1]q)//v[@n = $v]), count(doc(%[1]q)//w[. = $v]), count(doc(%[1]q)//v[$v = w]),
        count(doc(%[1]q)//v[@n != $v]), count(doc(%[1]q)//v[@n = $v][1]), count(doc(%[1]q)//v[1][w = $v]),
        count(with $x seeded by doc(%[1]q)//v[@n = $v] recurse $x/following-sibling::v[w = $v]),
        count(with $x seeded by doc(%[1]q)//v[@n = $v] recurse $x/following-sibling::v[@n = %[5]s]),
        count(with $x seeded by doc(%[1]q)//v[@n = $v]
              recurse (doc(%[1]q)//v[$x/@n = w], doc(%[1]q)//v[w = $x/@n/(. + 0)],
                       doc(%[1]q)//v[@n != $x/@n][1])))`, uri, atom(), atom(), atom(), atom())
}

// positionalSteps are steps from a SPEECH whose predicate reads a
// position or a size, on forward (first) and reverse (second) axes; a %d
// stands for a small position.
var positionalSteps = [2][]string{
	{"following-sibling::SPEECH[last()]", "following-sibling::SPEECH[position() = %d]",
		"following-sibling::SPEECH[last() - 1]", "descendant-or-self::*[position() = last()]"},
	{"preceding-sibling::SPEECH[last()]", "preceding-sibling::SPEECH[position() = %d]",
		"preceding-sibling::SPEECH[last() - 1]", "ancestor::*[position() = %d]"},
}

// positionalQuery draws a query over a play whose steps rank their matches
// per context node: positionalSteps and `SPEECH[position() = …]` below
// every SCENE. They sit in a for body over paths from the document —
// the loop-invariant shape whose bare step the relational compiler hoists
// when no predicate reads a position or a size — and in fixpoint bodies,
// one of which also holds such an invariant path.
func positionalQuery(rng *rand.Rand, uri string) string {
	step := func(reverse int) string {
		s := positionalSteps[reverse][rng.Intn(len(positionalSteps[reverse]))]
		if strings.Contains(s, "%d") {
			s = fmt.Sprintf(s, 1+rng.Intn(3))
		}
		return s
	}
	return fmt.Sprintf(`
for $k in (%[2]d, %[3]d)
return (count(doc(%[1]q)//SCENE/SPEECH[position() = $k]), count(doc(%[1]q)//SCENE/SPEECH[last() - $k]),
        count(doc(%[1]q)//SPEECH[SPEAKER = %[4]q]/%[5]s), count(doc(%[1]q)//SPEECH[position() = 3]/%[6]s),
        count(with $x seeded by doc(%[1]q)//SCENE/SPEECH[position() = $k] recurse $x/%[5]s),
        count(with $x seeded by doc(%[1]q)//SCENE/SPEECH[1] recurse $x/following-sibling::SPEECH[position() = $k]),
        count(with $x seeded by doc(%[1]q)//SCENE/SPEECH[last()]
              recurse ($x/%[6]s, doc(%[1]q)//SCENE/SPEECH[position() = last()])))`,
		uri, 1+rng.Intn(3), 1+rng.Intn(3), []string{"ROMEO", "JULIET", "NURSE"}[rng.Intn(3)], step(0), step(1))
}

// regularClosures are the Regular XPath paths Generate applies below the
// hospital root.
var regularClosures = []string{
	`(child::patient/child::parents/child::patient)+`,
	`child::patient/(child::parents/child::patient)*`,
	`(descendant::patient[child::diagnosis])+`,
	`(child::patient | child::patient/child::parents/child::patient)+`,
}

// config is one point of the differential matrix.
type config struct {
	combo
	opt ifpxq.OptLevel
}

// combo is one (engine, mode) cell of the matrix. Instrumentation is
// comparable within a cell; only result bytes are comparable across cells.
type combo struct {
	engine ifpxq.Engine
	mode   ifpxq.Mode
}

// String names the flags that reproduce the configuration, in the text
// forms the CLIs read.
func (k config) String() string {
	return fmt.Sprintf("engine=%v mode=%v -O%v", k.engine, k.mode, k.opt)
}

// outcome is one evaluation's observable behaviour.
type outcome struct {
	result    string
	err       string
	fixpoints []ifpxq.FixpointStats
}

// harness is a case parsed once, ready to be evaluated under every
// configuration.
type harness struct {
	q    *ifpxq.Query
	opts ifpxq.Options // Docs, and ContextItem for Regular XPath cases
	// engines is the interpreter alone for Regular XPath cases (interpreter
	// surface only), both engines otherwise.
	engines []ifpxq.Engine
}

// load parses the case's query and document, failing the test on either.
func load(t testing.TB, c Case) *harness {
	t.Helper()
	h := &harness{engines: []ifpxq.Engine{ifpxq.EngineInterpreter, ifpxq.EngineRelational}}
	var err error
	if c.RegularXPath {
		h.q, err = ifpxq.ParseRegularXPath(c.Query)
		h.engines = h.engines[:1]
	} else {
		h.q, err = ifpxq.Parse(c.Query)
	}
	if err != nil {
		t.Fatalf("seed %d: parse %q: %v", c.Seed, c.Query, err)
	}
	doc, err := ifpxq.ParseDocument(c.XML, c.URI)
	if err != nil {
		t.Fatalf("seed %d: document: %v", c.Seed, err)
	}
	h.opts.Docs = ifpxq.DocsFromDocuments(map[string]*xdm.Document{c.URI: doc})
	if c.RegularXPath {
		root := xdm.NewNode(doc.Root())
		h.opts.ContextItem = &root
	}
	return h
}

// walk is the one enumeration of the differential matrix: engine × mode ×
// optimizer level, each (engine, mode) cell starting at its baseline
// configuration (-O1). The interpreter has no plan stage —
// -O is a no-op there — so only the relational engine multiplies by the
// optimizer dimension.
func (h *harness) walk(fn func(k config, opts ifpxq.Options)) {
	for _, engine := range h.engines {
		for _, mode := range []ifpxq.Mode{ifpxq.ModeNaive, ifpxq.ModeAuto} {
			optLevels := OptLevels
			if engine == ifpxq.EngineInterpreter {
				optLevels = OptLevels[:1]
			}
			for _, opt := range optLevels {
				opts := h.opts
				opts.Engine, opts.Mode, opts.Opt = engine, mode, opt
				fn(config{combo{engine, mode}, opt}, opts)
			}
		}
	}
}

// eval runs one configuration and captures its observable behaviour.
func (h *harness) eval(opts ifpxq.Options) outcome {
	var got outcome
	res, err := h.q.Eval(opts)
	if err != nil {
		got.err = err.Error()
	} else {
		got.result = res.String()
		got.fixpoints = res.Fixpoints
	}
	return got
}

// sameOutcome is the one three-way comparison: two evaluations that must be
// indistinguishable agree on the error, the result bytes, and the fixpoint
// statistics. label says which seed and configuration, and what differed
// between the two runs.
func sameOutcome(t testing.TB, label string, want, got outcome) {
	t.Helper()
	if got.err != want.err {
		t.Errorf("%s: error diverges: %q vs %q", label, got.err, want.err)
	}
	if got.result != want.result {
		t.Errorf("%s: result diverges:\nwant: %.200q\n got: %.200q", label, want.result, got.result)
	}
	if !reflect.DeepEqual(got.fixpoints, want.fixpoints) {
		t.Errorf("%s: fixpoint stats diverge:\nwant: %+v\n got: %+v", label, want.fixpoints, got.fixpoints)
	}
}

// Check evaluates the case under every (engine, mode, optimizer level)
// configuration and fails the test on any divergence:
//
//   - within one (engine, mode): results AND fixpoint stats must be
//     identical at every optimizer level, and an error must be the same
//     error in every configuration;
//   - across engines and modes: every configuration that succeeds must
//     yield the byte-identical result string.
func Check(t testing.TB, c Case) {
	t.Helper()
	h := load(t, c)
	base := map[combo]outcome{}
	var agreed *outcome
	h.walk(func(k config, opts ifpxq.Options) {
		got := h.eval(opts)
		b, seen := base[k.combo]
		if seen {
			sameOutcome(t, fmt.Sprintf("seed %d %v vs the cell's -O1 baseline", c.Seed, k), b, got)
			return
		}
		base[k.combo] = got
		if got.err != "" {
			// An engine may reject a query outside its surface; that is
			// not a differential failure as long as it rejects it
			// identically in every configuration of the cell.
			return
		}
		if agreed == nil {
			agreed = &got
		} else if got.result != agreed.result {
			t.Errorf("seed %d %v: result diverges from other configurations\n got: %.200q\nwant: %.200q",
				c.Seed, k, got.result, agreed.result)
		}
	})
	if agreed == nil {
		t.Errorf("seed %d: no configuration evaluated the query successfully", c.Seed)
	}
}
