package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	ifpxq "repro"
	"repro/internal/bench"
	"repro/internal/regularxpath"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/ast"
	"repro/internal/xq/dist"
	"repro/internal/xq/parser"
)

// TestSeedSplitParity checks the property tabled µ rests on for every
// fixpoint body dist.Check certifies among the Table 2 queries, the
// generated differential cases and the Regular XPath closures: a certified
// body E answers a node set S the same way applied to all of it, to two
// overlapping parts S₁ ∪ S₂ = S, or to each node alone —
//
//	let $x := S₁ | S₂ return E
//	(let $x := S₁ return E) | (let $x := S₂ return E)
//	for $n in S return (let $x := $n return E)
//
// compared as node sets (each normalized by a union), on generated
// documents, through query text, on both engines.
func TestSeedSplitParity(t *testing.T) {
	var cases []Case
	for seed := int64(1); seed <= 24; seed++ {
		cases = append(cases, Generate(seed))
	}
	docs := map[string]string{
		"auction.xml":    xmlgen.Auction(xmlgen.AuctionConfig{People: 20, OpenAuctions: 12, MaxBiddersPerAuction: 3, Seed: 5}),
		"play.xml":       xmlgen.Play(xmlgen.PlayConfig{Acts: 1, ScenesPerAct: 2, SpeechesPerScene: 15, MaxDialogRun: 5, Seed: 5}),
		"curriculum.xml": xmlgen.Curriculum(xmlgen.CurriculumSized(40)),
		"hospital.xml":   xmlgen.Hospital(xmlgen.HospitalConfig{Patients: 60, Depth: 4, DiseaseFraction: 0.4, Seed: 5}),
	}
	for i, q := range []struct{ uri, query string }{
		{"auction.xml", bench.BidderNetworkQuery},
		{"play.xml", bench.DialogsQuery},
		{"curriculum.xml", bench.CurriculumQuery},
		{"hospital.xml", bench.HospitalQuery},
	} {
		cases = append(cases, Case{Seed: int64(100 + i), URI: q.uri, XML: docs[q.uri], Query: q.query})
	}
	for i, path := range regularClosures {
		cases = append(cases, Case{Seed: int64(200 + i), URI: "hospital.xml", XML: docs["hospital.xml"],
			Query: "child::hospital/" + path, RegularXPath: true})
	}
	bodies, answered := 0, 0
	for _, c := range cases {
		n, a := checkSeedSplit(t, c)
		bodies, answered = bodies+n, answered+a
	}
	if bodies < len(cases) || answered == 0 {
		t.Fatalf("%d certified bodies checked over %d cases, %d with a non-empty answer", bodies, len(cases), answered)
	}
	t.Logf("%d certified bodies checked over %d cases, %d with a non-empty answer", bodies, len(cases), answered)
}

// checkSeedSplit runs the three applications for every certified body of
// the case whose free variables are only its recursion variable and
// prolog globals, and returns how many bodies it checked and how many of
// them answered a non-empty node set.
func checkSeedSplit(t *testing.T, c Case) (bodies, answered int) {
	t.Helper()
	var m *ast.Module
	if c.RegularXPath {
		p, err := regularxpath.Parse(c.Query)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", c.Seed, c.Query, err)
		}
		m = &ast.Module{Body: p.Expr()}
	} else {
		var err error
		if m, err = parser.Parse(c.Query); err != nil {
			t.Fatalf("seed %d: parse %q: %v", c.Seed, c.Query, err)
		}
	}
	doc, err := xmldoc.ParseString(c.XML, c.URI)
	if err != nil {
		t.Fatalf("seed %d: document: %v", c.Seed, err)
	}
	docs := ifpxq.DocsFromDocuments(map[string]*xdm.Document{c.URI: doc})
	globals := map[string]bool{}
	for _, v := range m.Vars {
		globals[v.Name] = true
	}
	rng := rand.New(rand.NewSource(c.Seed))
	ast.Walk(m.Body, func(e ast.Expr) bool {
		fp, ok := e.(*ast.Fixpoint)
		if !ok || !dist.Safe(fp.Body, fp.Var, dist.ModuleResolver(m)) {
			return true
		}
		for v := range ast.FreeVars(fp.Body) {
			if v != fp.Var && !globals[v] {
				return true
			}
		}
		bodies++
		x, body := "$"+fp.Var, "("+ast.Format(fp.Body)+")"
		k1, k2 := 2+rng.Intn(3), 2+rng.Intn(3)
		split, err := parser.ParseExpr(fmt.Sprintf(`
let $ss := doc(%q)//* return
let $ss1 := $ss[position() mod %d = %d] return
let $ss2 := $ss[position() mod %d = %d] return
let $sa := (let %[6]s := ($ss1 | $ss2) return %[7]s) | () return
let $sb := (let %[6]s := $ss1 return %[7]s) | (let %[6]s := $ss2 return %[7]s) return
let $sc := (for $sn in ($ss1 | $ss2) return (let %[6]s := $sn return %[7]s)) | () return
(count($sa), count($sb), count($sc), count($sa | $sb), count($sa | $sc))`,
			c.URI, k1, rng.Intn(k1), k2, rng.Intn(k2), x, body))
		if err != nil {
			t.Fatalf("seed %d: split query for %s: %v", c.Seed, body, err)
		}
		src := ast.FormatModule(&ast.Module{Funcs: m.Funcs, Vars: m.Vars, Body: split})
		q, err := ifpxq.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse split query %q: %v", c.Seed, src, err)
		}
		var ref string
		for _, engine := range []ifpxq.Engine{ifpxq.EngineInterpreter, ifpxq.EngineRelational} {
			res, err := q.Eval(ifpxq.Options{Engine: engine, Docs: docs})
			if err != nil {
				t.Errorf("seed %d engine %v: body %s: %v", c.Seed, engine, body, err)
				continue
			}
			counts := res.Strings()
			if len(counts) != 5 || len(slices.Compact(slices.Clone(counts))) != 1 {
				t.Errorf("seed %d engine %v: body %s: |whole| |parts| |per node| |whole ∪ parts| |whole ∪ per node| = %v, want all equal",
					c.Seed, engine, body, counts)
			}
			if got := res.String(); ref == "" {
				ref = got
			} else if got != ref {
				t.Errorf("seed %d: body %s: engines disagree: %q vs %q", c.Seed, body, ref, got)
			}
			if len(counts) > 0 && counts[0] != "0" && engine == ifpxq.EngineInterpreter {
				answered++
			}
		}
		return true
	})
	return bodies, answered
}
