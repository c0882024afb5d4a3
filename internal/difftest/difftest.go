// Package difftest is the differential fuzz harness for the fixpoint
// engines: from one integer seed it derives a random document (through
// internal/xmlgen) and a random fixpoint or Regular XPath query, then
// checks that every evaluation strategy the repository offers — Naïve vs
// Delta (the paper's Figure 3 pair), tree-at-a-time vs relational,
// sequential vs parallel rounds, and verbatim (-O0) vs optimized (-O1)
// relational plans — produces byte-identical results and, within one
// engine and mode, identical instrumentation at every worker count and
// optimizer level. Calvanese et al.'s observation that fixpoint semantics admit many
// equivalent evaluation strategies is exactly what makes this harness
// decisive: any divergence is a bug in some engine, never in the query.
package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
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
	// only; still differential across modes and worker counts).
	RegularXPath bool
}

// Parallelisms are the worker-pool widths every case is evaluated at; the
// first must be 1 (the sequential baseline).
var Parallelisms = []int{1, 3}

// OptLevels are the relational plan-optimizer levels every case is
// evaluated at; the first must be the optimized default (the baseline
// configuration). The interpreter engine has no plan stage — the flag is a
// no-op there — so only the relational engine multiplies by this
// dimension; the -O0/-O1 parity the optimizer promises (byte-identical
// results AND identical fixpoint statistics) is checked per (mode, worker
// count) against the shared baseline.
var OptLevels = []ifpxq.OptLevel{ifpxq.Opt1, ifpxq.Opt0}

// Generate derives a case from a seed. Documents are kept small — tens to
// a few hundred nodes — so thousands of cases stay cheap; the engines'
// sharding thresholds do not gate correctness, only goroutine count.
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed}
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
		switch rng.Intn(3) {
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
	case 3: // play: horizontal following-sibling recursion
		cfg := xmlgen.PlayConfig{
			Acts:             1,
			ScenesPerAct:     1 + rng.Intn(2),
			SpeechesPerScene: 10 + rng.Intn(15),
			MaxDialogRun:     3 + rng.Intn(6),
			Seed:             rng.Int63(),
		}
		c.URI, c.XML = "play.xml", xmlgen.Play(cfg)
		c.Query = fmt.Sprintf(`
count(with $x seeded by doc(%q)//SPEECH[not(preceding-sibling::SPEECH[1]/SPEAKER != SPEAKER)]
recurse for $s in $x
        return $s/following-sibling::SPEECH[1][SPEAKER != $s/SPEAKER])`, c.URI)
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
		exprs := []string{
			`(child::patient/child::parents/child::patient)+`,
			`child::patient/(child::parents/child::patient)*`,
			`(descendant::patient[child::diagnosis])+`,
			`(child::patient | child::patient/child::parents/child::patient)+`,
		}
		c.Query = "child::hospital/" + exprs[rng.Intn(len(exprs))]
	}
	return c
}

// config is one point of the differential matrix.
type config struct {
	combo
	opt ifpxq.OptLevel
	p   int
}

// combo is one (engine, mode) cell of the matrix. Instrumentation is
// comparable within a cell; only result bytes are comparable across cells.
type combo struct {
	engine ifpxq.Engine
	mode   ifpxq.Mode
}

// String names the flags that reproduce the configuration (-O0/-O1 as the
// CLIs spell them).
func (k config) String() string {
	o := 1
	if k.opt == ifpxq.Opt0 {
		o = 0
	}
	return fmt.Sprintf("engine=%v mode=%v -O%d p=%d", k.engine, k.mode, o, k.p)
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
// optimizer level × worker count, each (engine, mode) cell starting at its
// baseline configuration (-O1, p=1). The interpreter has no plan stage —
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
				for _, p := range Parallelisms {
					opts := h.opts
					opts.Engine, opts.Mode, opts.Opt, opts.Parallelism = engine, mode, opt, p
					fn(config{combo{engine, mode}, opt, p}, opts)
				}
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

// Check evaluates the case under every (engine, mode, optimizer level,
// parallelism) configuration and fails the test on any divergence:
//
//   - within one (engine, mode): results AND fixpoint stats must be
//     identical at every worker count and every optimizer level, and an
//     error must be the same error in every configuration;
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
			sameOutcome(t, fmt.Sprintf("seed %d %v vs the cell's -O1 p=1 baseline", c.Seed, k), b, got)
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
