package interp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

// TestTabledSitesMatchNaive: a site that runs Delta on a certified body and
// is executed again under the same bindings answers fed nodes from its
// table. Naïve never tables, so it is the oracle: every query must give the
// byte-identical result, or fail with the same error code, under both
// modes. BodyInputs pins whether the table engaged — below NodesFedBack
// when it did, equal to it when the bindings or the focus change between
// executions and every execution starts a fresh table — wherever the
// evaluation reports its sites (it does not on errors other than a
// budget's).
func TestTabledSitesMatchNaive(t *testing.T) {
	docs := map[string]string{
		"curriculum.xml": curriculumXML,
		"c40.xml":        xmlgen.Curriculum(xmlgen.CurriculumSized(40)),
		"c40b.xml":       xmlgen.Curriculum(xmlgen.CurriculumConfig{Courses: 40, MaxPrereqs: 3, CycleFraction: 0.1, Seed: 11}),
		"auction.xml":    xmlgen.Auction(xmlgen.FromScale(0.0008)),
	}
	resolve := func(uri string) (*xdm.Document, error) {
		if src, ok := docs[uri]; ok {
			return xmldoc.ParseString(src, uri)
		}
		return nil, xdm.Errorf(xdm.ErrDoc, "unknown test document %q", uri)
	}
	cases := []struct {
		name   string
		query  string
		tabled bool
		// rowsOf, when set, is the same logical work with a focus that
		// changes per execution, so it never tables. The case runs under
		// the row budget rowsOf charges: only the table's own entries can
		// push it over, so both modes must trip.
		rowsOf string
	}{
		{name: "Q1 curriculum", tabled: true, query: `
for $c in doc("c40.xml")/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`},
		{name: "Q1 counts", tabled: true, query: `
for $c in doc("c40.xml")/curriculum/course
return count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code))`},
		{name: "bidder network", tabled: true, query: `
declare variable $doc := doc("auction.xml");
declare function bidder($in as node()*) as node()* {
  for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
for $p in $doc//people/person
return <person>{ $p/@id }{ count(with $x seeded by $p recurse bidder($x)) }</person>`},
		{name: "variable of an enclosing for", query: `
for $k in ("c20", "c30", "c20")
return count(with $x seeded by doc("c40.xml")/curriculum/course[1]
             recurse $x/id(./prerequisites/pre_code)[@code != $k])`},
		{name: "outer focus", query: `
doc("c40.xml")//course/count(with $x seeded by . recurse ($x | id(prerequisites/pre_code)))`},
		{name: "id with an implicit document", query: `
doc("curriculum.xml")//course/count(with $x seeded by . recurse ($x/id(./prerequisites/pre_code) | id("c1")))`},
		{name: "site in a function reading its parameter", query: `
declare function reach($c as node(), $k as xs:string) as xs:integer {
  count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code)[@code != $k])
};
for $c in doc("c40.xml")/curriculum/course return reach($c, "c25")`},
		{name: "site in a function not reading its parameters", tabled: true, query: `
declare function reach($c as node()) as node()* {
  with $x seeded by $c recurse $x/id(./prerequisites/pre_code)
};
for $c in doc("c40.xml")/curriculum/course return count(reach($c))`},
		{name: "error on one node", tabled: true, query: `
for $c in doc("curriculum.xml")/curriculum/course
return count(with $x seeded by $c
             recurse $x/(if (@code = "c5") then error("c5") else id(./prerequisites/pre_code)))`},
		{name: "two documents", tabled: true, query: `
for $d in ("c40.xml", "c40b.xml", "c40.xml", "c40b.xml")
return string-join((with $x seeded by doc($d)/curriculum/course[1]
                    recurse $x/id(./prerequisites/pre_code))/@code/string(), " ")`},
		{name: "empty seed", tabled: true, query: `
for $i in (1, 2, 3)
return count(with $x seeded by () recurse ($x/* | doc("c40.xml")/curriculum/course[1]))`},
		{name: "row budget", tabled: true, query: `
for $c in doc("c40.xml")/curriculum/course
return count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code))`,
			rowsOf: `
doc("c40.xml")/curriculum/course/count(with $x seeded by . recurse $x/id(./prerequisites/pre_code))`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eval := func(mode core.Mode, budget *xdm.Budget) (*Result, string) {
				res, err := EvalString(c.query, Options{Mode: mode, Docs: resolve, Budget: budget})
				if err != nil {
					return res, "error " + string(xdm.CodeOf(err))
				}
				return res, xmldoc.SerializeSequence(res.Value)
			}
			budget := func() *xdm.Budget { return nil }
			if c.rowsOf != "" {
				probe := xdm.NewBudget(time.Time{}, 0, 1<<40)
				if _, err := EvalString(c.rowsOf, Options{Docs: resolve, Budget: probe}); err != nil {
					t.Fatal(err)
				}
				budget = func() *xdm.Budget { return xdm.NewBudget(time.Time{}, 0, probe.RowsCharged()) }
			}
			auto, got := eval(ModeAuto, budget())
			naive, want := eval(ModeNaive, budget())
			if got != want {
				t.Fatalf("tabled Delta and Naïve disagree:\n got: %.300s\nwant: %.300s", got, want)
			}
			if c.rowsOf != "" && got != "error "+string(xdm.ErrRows) {
				t.Fatalf("row budget did not trip: %.100s", got)
			}
			if auto == nil && naive == nil {
				return // an error other than a budget's reports no sites
			}
			if auto == nil || naive == nil || len(auto.IFPRuns) != 1 || len(naive.IFPRuns) != 1 {
				t.Fatalf("want one fixpoint site in each mode, got %+v and %+v", auto, naive)
			}
			site, oracle := auto.IFPRuns[0], naive.IFPRuns[0]
			if oracle.BodyInputs() != oracle.Stats.NodesFedBack {
				t.Errorf("Naïve tabled: body inputs %d, nodes fed %d", oracle.BodyInputs(), oracle.Stats.NodesFedBack)
			}
			if site.Executions < 2 || !site.Distributive {
				t.Fatalf("site must be certified and re-executed: %+v", site)
			}
			if c.tabled && site.BodyInputs() >= site.Stats.NodesFedBack {
				t.Errorf("table did not engage: body inputs %d, nodes fed %d", site.BodyInputs(), site.Stats.NodesFedBack)
			}
			if !c.tabled && site.BodyInputs() != site.Stats.NodesFedBack {
				t.Errorf("table engaged across changed bindings: body inputs %d, nodes fed %d", site.BodyInputs(), site.Stats.NodesFedBack)
			}
		})
	}
}

// TestTabledNonNodeAnswerFailsLikeAdd: a table stores an entry's answer as
// nodes, checked once when the entry is made. A non-node answer must still
// fail the query with Family.Add's XPTY0004 message, as it does untabled.
// c5 is reachable from no other course, so its answer is first computed by
// the fifth execution, which the table serves.
func TestTabledNonNodeAnswerFailsLikeAdd(t *testing.T) {
	const query = `
for $c in doc("curriculum.xml")/curriculum/course
return count(with $x seeded by $c
             recurse $x/(if (@code = "c5") then string(@code) else id(./prerequisites/pre_code)))`
	var msgs []string
	for _, mode := range []core.Mode{ModeAuto, ModeNaive} {
		_, err := EvalString(query, Options{Mode: mode, Docs: testDocs(t)})
		if xdm.CodeOf(err) != xdm.ErrType {
			t.Fatalf("mode %v: %v, want XPTY0004", mode, err)
		}
		msgs = append(msgs, err.Error())
	}
	if want := "inflationary fixed point over a non-node item of type xs:string"; !strings.HasSuffix(msgs[0], want) || msgs[0] != msgs[1] {
		t.Fatalf("tabled error %q, untabled %q; want both to end %q", msgs[0], msgs[1], want)
	}
}
