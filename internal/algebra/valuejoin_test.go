package algebra_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/ast"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

// planShape counts, over a plan DAG, the value joins the compiler builds
// for a hoisted step's `dep = free` predicate and the crosses that pair
// every iteration with a hoisted step's candidates. A cross with fn:doc
// is the document leaf, and one over the candidates' own loop (iter:cand)
// lifts a prolog global that dep reads: neither counts.
func planShape(root *algebra.Node) (joins, crosses int) {
	seen := map[*algebra.Node]bool{}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		switch {
		case n.Op == algebra.OpJoin && len(n.Preds) == 1 && n.Preds[0] == algebra.JoinPred{L: "key", R: "fkey", Cmp: algebra.NumEq}:
			joins++
		case n.Op == algebra.OpCross && n.Kids[1].Op != algebra.OpDoc && !candLoop(n.Kids[0]):
			crosses++
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return joins, crosses
}

func candLoop(n *algebra.Node) bool {
	return n.Op == algebra.OpProject && len(n.Proj) == 1 && n.Proj[0] == algebra.ProjPair{Out: "iter", In: "cand"}
}

// compileBoth compiles src verbatim and optimized.
func compileBoth(t *testing.T, m *ast.Module) (raw, optimized *algebra.Plan) {
	t.Helper()
	raw, err := algebra.CompilePlan(m, core.ModeAuto, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	optimized, err = algebra.CompilePlan(m, core.ModeAuto, false, opt.Optimize, nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw, optimized
}

// relMatchesInterp evaluates m on the interpreter and on both plans and
// fails unless all three serialize alike; it returns the interpreter's
// serialization.
func relMatchesInterp(t *testing.T, label string, m *ast.Module, docs func(string) (*xdm.Document, error)) string {
	t.Helper()
	ir, err := interp.New(m, interp.Options{Docs: docs}).Eval()
	if err != nil {
		t.Fatalf("%s: interp: %v", label, err)
	}
	want := xmldoc.SerializeSequence(ir.Value)
	raw, optimized := compileBoth(t, m)
	for _, p := range []*algebra.Plan{raw, optimized} {
		seq, _, err := algebra.NewEngineFromPlan(p, algebra.Options{Docs: docs}).Eval()
		if err != nil {
			t.Fatalf("%s: rel: %v", label, err)
		}
		if got := xmldoc.SerializeSequence(seq); got != want {
			t.Errorf("%s (optimized=%v): rel %.200q, interp %.200q", label, p.Root != p.Raw, got, want)
		}
	}
	return want
}

// TestValueJoinShapes pins which predicates on a hoisted, loop-invariant
// step compile to one value join and which keep the crossed plan, and that
// either plan answers what the interpreter does.
func TestValueJoinShapes(t *testing.T) {
	cases := []struct {
		name, query, want string
		joined, crossed   bool
	}{
		{"dep @a", `for $c in ("a", "c") return doc("shop.xml")/shop/item[@cat = $c]/name/string()`,
			"apple fig kiwi", true, false},
		{"operands swapped", `for $c in ("a", "c") return doc("shop.xml")/shop/item[$c = @cat]/name/string()`,
			"apple fig kiwi", true, false},
		{"dep .", `for $n in ("fig", "kiwi", "plum") return doc("shop.xml")//name[. = $n]/string()`,
			"fig kiwi", true, false},
		{"dep a/@b, numbers against untyped", `for $p in (10, 25.0, "40", 99) return count(doc("shop.xml")/shop[item/@price = $p])`,
			"1 1 1 0", true, false},
		{"dep reads a global", `declare variable $g := "b";
for $c in ("a", "b") return count(doc("shop.xml")/shop/item[(@cat, $g) = $c])`,
			"2 4", true, false},
		{"!=", `for $c in ("a", "c") return count(doc("shop.xml")/shop/item[@cat != $c])`,
			"2 3", false, true},
		{"eq", `for $c in ("a", "c") return doc("shop.xml")/shop/item[@cat eq $c]/name/string()`,
			"apple fig kiwi", false, true},
		{"local variable in dep", `for $c in ("a", "c") return doc("shop.xml")/shop/item[@cat[$c != "z"] = $c]/name/string()`,
			"apple fig kiwi", false, true},
		{"candidates not invariant", `for $i in doc("shop.xml")/shop/item, $c in ("a") return $i/name[../@cat = $c]/string()`,
			"apple fig", false, false},
		{"top loop", `doc("shop.xml")/shop/item[@cat = "a"]/name/string()`,
			"apple fig", false, false},
		{"second predicate", `for $c in ("a", "c") return doc("shop.xml")/shop/item[name][@cat = $c]/name/string()`,
			"apple fig kiwi", false, true},
	}
	docs := algebra.Docs(t)
	for _, c := range cases {
		m, err := parser.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := relMatchesInterp(t, c.name, m, docs); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
		raw, optimized := compileBoth(t, m)
		for _, p := range []*algebra.Plan{raw, optimized} {
			joins, crosses := planShape(p.Root)
			if joined, crossed := joins > 0, crosses > 0; joined != c.joined || crossed != c.crossed {
				t.Errorf("%s (optimized=%v): %d value joins, %d crosses; want joined=%v crossed=%v:\n%s",
					c.name, p.Root != p.Raw, joins, crosses, c.joined, c.crossed, algebra.Explain(p.Root))
			}
		}
	}
}

// TestBidderJoinKeepsCertificates: both value predicates of the bidder
// body take the join form, and the site keeps the strict and extended
// algebraic certificates, so auto mode still runs it as µ∆.
func TestBidderJoinKeepsCertificates(t *testing.T) {
	m, err := parser.Parse(bench.BidderNetworkQuery)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := compileBoth(t, m)
	if joins, crosses := planShape(raw.Root); joins != 2 || crosses != 0 {
		t.Errorf("bidder plan: %d value joins, %d crosses; want 2 and 0", joins, crosses)
	}
	if len(raw.Mus) != 1 || !raw.Mus[0].Distributive || !raw.Mus[0].DistributiveExt {
		t.Fatalf("bidder site lost a certificate: %+v", raw.Mus)
	}
	if !raw.Mus[0].Mu.Delta {
		t.Errorf("bidder site does not run as µ∆ under auto mode")
	}
}

// TestBidderRelMatchesInterpAcrossScales evaluates the bidder query on
// generated XMark-style documents and requires the relational engine, on
// its verbatim and optimized plans, to answer byte for byte what the
// interpreter does.
func TestBidderRelMatchesInterpAcrossScales(t *testing.T) {
	m, err := parser.Parse(bench.BidderNetworkQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range []float64{0.001, 0.003, 0.01} {
		d, err := xmldoc.ParseString(xmlgen.Auction(xmlgen.FromScale(sf)), "auction.xml")
		if err != nil {
			t.Fatal(err)
		}
		docs := func(uri string) (*xdm.Document, error) {
			if uri == "auction.xml" {
				return d, nil
			}
			return nil, xdm.Errorf(xdm.ErrDoc, "unknown doc %q", uri)
		}
		relMatchesInterp(t, fmt.Sprintf("bidder sf=%g", sf), m, docs)
	}
}

// TestPositionAfterVariablePredicateIsSemantic: a position taken among the
// candidates an earlier predicate kept is step-template bookkeeping only
// while that predicate reads no variable but prolog globals; after one
// that reads the recursion variable, it blocks the push-up, since e(S)
// then is not ∪ e({n}).
func TestPositionAfterVariablePredicateIsSemantic(t *testing.T) {
	for body, want := range map[string]bool{
		`doc("shop.xml")//item[@cat != $x/@cat][1]`:              false,
		`doc("shop.xml")//item[@cat != $x/@cat][position() = 1]`: false,
		`doc("shop.xml")//item[@cat != $x/@cat][last()]`:         false,
		`$x/following-sibling::item[@cat = "a"][1]`:              true,
		`doc("shop.xml")//item[@cat != $x/@cat][name]`:           true,
	} {
		m, err := parser.Parse(`with $x seeded by doc("shop.xml")/shop/item[1] recurse ` + body)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := compileBoth(t, m)
		if s := raw.Mus[0]; s.Distributive != want || s.DistributiveExt != want {
			t.Errorf("%s: strict=%v extended=%v, want %v", body, s.Distributive, s.DistributiveExt, want)
		}
	}
}
