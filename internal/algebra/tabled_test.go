package algebra_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

// TestRelTabledMatchesInterpNaive pins node-keyed µ on the relational
// engine: under auto, forced Naïve and forced µ∆, at -O0 and -O1, a tabled
// plan returns what the interpreter's untabled Naïve returns (the same
// bytes, or an error of the same code), and reports the Table 2 counters
// (nodes fed back, depth) of the same plan with tabling switched off. Its
// body inputs never exceed the nodes fed, and fall below them where a node
// comes back (the Table 2 queries, Naïve). A MaxRows budget one row short
// of what the tabled plan charges, memo included, trips it and the
// untabled plan alike.
func TestRelTabledMatchesInterpNaive(t *testing.T) {
	xml := map[string]string{
		"auction.xml":    xmlgen.Auction(xmlgen.AuctionConfig{People: 20, OpenAuctions: 12, MaxBiddersPerAuction: 3, Seed: 5}),
		"play.xml":       xmlgen.Play(xmlgen.PlayConfig{Acts: 1, ScenesPerAct: 2, SpeechesPerScene: 15, MaxDialogRun: 5, Seed: 5}),
		"curriculum.xml": xmlgen.Curriculum(xmlgen.CurriculumSized(40)),
		"hospital.xml":   xmlgen.Hospital(xmlgen.HospitalConfig{Patients: 60, Depth: 4, DiseaseFraction: 0.4, Seed: 5}),
	}
	shop := algebra.Docs(t)
	docs := func(uri string) (*xdm.Document, error) {
		if src, ok := xml[uri]; ok {
			return xmldoc.ParseString(src, uri)
		}
		return shop(uri)
	}
	cases := []struct {
		name, query string
		fewer       bool // body inputs < nodes fed under every mode
		budget      bool
	}{
		{"bidder", bench.BidderNetworkQuery, true, false},
		{"dialogs", bench.DialogsQuery, false, false},
		{"curriculum", bench.CurriculumQuery, true, false},
		{"hospital", bench.HospitalQuery, false, false},
		{"enclosing variable", `for $c in doc("curriculum.xml")/curriculum/course[position() <= 6]
return count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code)[@code != $c/@code])`, false, false},
		{"outer focus", `for $i in doc("shop.xml")/shop/item
return $i/count(with $x seeded by . recurse ($x/following-sibling::item, ./name))`, false, false},
		{"function parameter", `declare function reach($p as node()*, $k) as node()* {
  with $x seeded by $p recurse $x/id(./prerequisites/pre_code[$k])
};
for $c in doc("curriculum.xml")/curriculum/course, $k in (1, 2)
return count(reach($c, $k))`, false, false},
		{"empty seed", `for $p in (1, 2, 7) return count(with $x seeded by doc("shop.xml")/shop/item[$p > 5]
recurse ($x/name | doc("shop.xml")/shop))`, false, false},
		{"row budget", bench.BidderNetworkQuery, true, true},
	}
	modes := []core.Mode{core.ModeAuto, core.ModeNaive, core.ModeDelta}
	for _, c := range cases {
		m, err := parser.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		ir, err := interp.New(m, interp.Options{Mode: interp.ModeNaive, Docs: docs}).Eval()
		if err != nil {
			t.Fatalf("%s: interp Naïve: %v", c.name, err)
		}
		want := xmldoc.SerializeSequence(ir.Value)
		for _, mode := range modes {
			for _, optimize := range []bool{false, true} {
				label := fmt.Sprintf("%s mode=%d opt=%v", c.name, mode, optimize)
				run := func(tabled bool, maxRows int64) (string, []algebra.MuRun, *xdm.Budget, error) {
					plan, err := algebra.CompilePlan(m, mode, false, func(p *algebra.Plan) {
						for _, s := range p.Mus {
							s.Mu.Tabled = s.Mu.Tabled && tabled
						}
						if optimize {
							opt.Optimize(p)
						}
					}, nil)
					if err != nil {
						t.Fatalf("%s: compile: %v", label, err)
					}
					budget := xdm.NewBudget(time.Time{}, 0, maxRows)
					seq, runs, err := algebra.NewEngineFromPlan(plan, algebra.Options{Docs: docs, Budget: budget}).Eval()
					return xmldoc.SerializeSequence(seq), runs, budget, err
				}
				if c.budget {
					_, _, counted, err := run(true, 1<<62)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					limit := counted.RowsCharged() - 1
					_, _, _, tabledErr := run(true, limit)
					_, _, _, plainErr := run(false, limit)
					if xdm.CodeOf(tabledErr) != xdm.ErrRows || xdm.CodeOf(plainErr) != xdm.ErrRows {
						t.Errorf("%s: MaxRows %d: tabled %v, untabled %v; want both %s", label, limit, tabledErr, plainErr, xdm.ErrRows)
					}
					continue
				}
				got, runs, _, err := run(true, 0)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got != want {
					t.Errorf("%s: result diverges from interp Naïve:\n  interp: %.200q\n  rel:    %.200q", label, want, got)
				}
				_, plain, _, err := run(false, 0)
				if err != nil {
					t.Fatalf("%s untabled: %v", label, err)
				}
				if len(runs) != len(plain) {
					t.Fatalf("%s: %d sites tabled, %d untabled", label, len(runs), len(plain))
				}
				for i, r := range runs {
					st, pst := r.Stats, plain[i].Stats
					if st.NodesFedBack != pst.NodesFedBack || st.Depth != pst.Depth || st.ResultSize != pst.ResultSize {
						t.Errorf("%s site %d: counters %+v tabled, %+v untabled", label, i, st, pst)
					}
					if in := r.BodyInputs(); in > st.NodesFedBack || c.fewer && in >= st.NodesFedBack || in < 0 {
						t.Errorf("%s site %d: body inputs %d, nodes fed %d", label, i, in, st.NodesFedBack)
					}
				}
			}
		}
	}
}
