package algebra

import (
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xq/dist"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

const curriculumXML = `<!DOCTYPE curriculum [
<!ATTLIST course code ID #REQUIRED>
]>
<curriculum>
<course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
<course code="c2"><prerequisites/></course>
<course code="c3"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
<course code="c4"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
<course code="c5"><prerequisites><pre_code>c5</pre_code></prerequisites></course>
</curriculum>`

const shopXML = `<shop>
<item price="10" cat="a"><name>apple</name></item>
<item price="25" cat="b"><name>pear</name></item>
<item price="10" cat="a"><name>fig</name></item>
<item price="40" cat="c"><name>kiwi</name></item>
</shop>`

func docs(t testing.TB) func(string) (*xdm.Document, error) {
	t.Helper()
	cache := map[string]*xdm.Document{}
	return func(uri string) (*xdm.Document, error) {
		if d, ok := cache[uri]; ok {
			return d, nil
		}
		var src string
		switch uri {
		case "curriculum.xml":
			src = curriculumXML
		case "shop.xml":
			src = shopXML
		default:
			return nil, xdm.Errorf(xdm.ErrDoc, "unknown doc %q", uri)
		}
		d, err := xmldoc.ParseString(src, uri)
		if err != nil {
			return nil, err
		}
		cache[uri] = d
		return d, nil
	}
}

func relEval(t *testing.T, src string, mode FixpointMode) (xdm.Sequence, []MuRun) {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	en, err := NewEngine(m, Options{Mode: mode, Docs: docs(t)})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	seq, runs, err := en.Eval()
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return seq, runs
}

func relStr(t *testing.T, src string) string {
	t.Helper()
	seq, _ := relEval(t, src, ModeAuto)
	return xmldoc.SerializeSequence(seq)
}

func TestRelationalBasics(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1", "1"},
		{`"hi"`, "hi"},
		{"(1, 2, 3)", "1 2 3"},
		{"()", ""},
		{"1 + 2 * 3", "7"},
		{"-(4)", "-4"},
		{"let $x := 5 return $x + $x", "10"},
		{"for $x in (1, 2, 3) return $x * 2", "2 4 6"},
		{"for $x at $i in (10, 20) return $i", "1 2"},
		{"for $x in (1, 2), $y in (10, 20) return $x + $y", "11 21 12 22"},
		{"if (1 = 1) then 7 else 8", "7"},
		{"if (1 = 2) then 7 else 8", "8"},
		{"for $x in (1, 2, 3, 4) where $x mod 2 = 0 return $x", "2 4"},
		{"(1, 2) = (2, 3)", "true"},
		{"(1, 2) = (3, 4)", "false"},
		{"1 < 2 and 2 < 3", "true"},
		{"1 > 2 or 2 > 3", "false"},
		{"count((1, 2, 3))", "3"},
		{"count(())", "0"},
		{"empty(())", "true"},
		{"exists((1))", "true"},
		{"not(1 = 1)", "false"},
		{"some $x in (1, 2, 3) satisfies $x > 2", "true"},
		{"every $x in (1, 2, 3) satisfies $x > 0", "true"},
		{"every $x in (1, 2, 3) satisfies $x > 1", "false"},
		{`string(42)`, "42"},
		{`number("2.5") + 1`, "3.5"},
	}
	for _, c := range cases {
		if got := relStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRelationalPaths(t *testing.T) {
	pre := `let $d := doc("shop.xml")/shop return `
	cases := []struct{ in, want string }{
		{pre + `count($d/item)`, "4"},
		{pre + `$d/item/name/string()`, "apple pear fig kiwi"},
		{pre + `$d/item[2]/name/string()`, "pear"},
		{pre + `$d/item[last()]/name/string()`, "kiwi"},
		{pre + `$d/item[@cat = "a"]/name/string()`, "apple fig"},
		{pre + `$d/item[@price > 20]/name/string()`, "pear kiwi"},
		{pre + `count($d//name)`, "4"},
		{pre + `($d//name)[3]/string()`, "fig"},
		{pre + `$d/item/@price/string()`, "10 25 10 40"},
		{pre + `for $i in $d/item where $i/@price = 10 return $i/name/string()`, "apple fig"},
		{pre + `$d/item[1]/following-sibling::item[1]/name/string()`, "pear"},
		{pre + `$d/item[3]/preceding-sibling::item[1]/name/string()`, "pear"},
		{pre + `$d/item[name = "fig"]/@cat/string()`, "a"},
		{pre + `count($d/item/self::item)`, "4"},
		{pre + `$d/item[2]/parent::shop/item[1]/name/string()`, "apple"},
		{pre + `count($d/item/ancestor::shop)`, "1"},
		{pre + `count($d/item/ancestor-or-self::*)`, "5"},
		// An attribute's owner's content follows it in document order.
		{pre + `$d/item[3]/@cat/following::name/string()`, "fig kiwi"},
		{pre + `count($d/item[4]/@price/following::*)`, "1"},
		{pre + `$d/item[1]/name/text()/string()`, "apple"},
		{pre + `(($d/item[4], $d/item[2]) union $d/item[1])/name/string()`, "apple pear kiwi"},
		{pre + `($d/item intersect $d/item[@cat = "a"])/name/string()`, "apple fig"},
		{pre + `($d/item except $d/item[@cat = "a"])/name/string()`, "pear kiwi"},
		{pre + `$d/item[1]/name << $d/item[2]`, "true"},
		{pre + `$d/item[1] is $d/item[1]`, "true"},
	}
	for _, c := range cases {
		if got := relStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRelationalConstructors(t *testing.T) {
	cases := []struct{ in, want string }{
		{`<a/>`, `<a/>`},
		{`<a b="1"/>`, `<a b="1"/>`},
		{`<a>{1 + 1}</a>`, `<a>2</a>`},
		{`<a>{1, 2}</a>`, `<a>1 2</a>`},
		{`element foo { "x" }`, `<foo>x</fooEXPECT`},
		{`for $i in (1, 2) return <n v="{$i}"/>`, `<n v="1"/><n v="2"/>`},
		{`<a>{<b/>}</a>`, `<a><b/></a>`},
		{`<person>{ <x id="7"/>/@id }</person>`, `<person id="7"/>`},
		{`string(text { "hi" })`, `hi`},
	}
	for _, c := range cases {
		want := strings.ReplaceAll(c.want, "EXPECT", ">")
		if got := relStr(t, c.in); got != want {
			t.Errorf("%s = %q, want %q", c.in, got, want)
		}
	}
}

// q1 is the paper's Example 2.2 written for the relational pipeline.
const q1 = `(with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c1"]
recurse $x/id(./prerequisites/pre_code))/@code/string()`

func TestRelationalQ1(t *testing.T) {
	for _, mode := range []FixpointMode{ModeAuto, ModeNaive, ModeDelta} {
		seq, runs := relEval(t, q1, mode)
		if got := xmldoc.SerializeSequence(seq); got != "c2 c3 c4" {
			t.Errorf("mode %d: Q1 = %q, want \"c2 c3 c4\"", mode, got)
		}
		if len(runs) != 1 {
			t.Fatalf("mode %d: µ runs = %d, want 1", mode, len(runs))
		}
	}
}

func TestQ1AlgebraicallyDistributive(t *testing.T) {
	m, err := parser.Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(m, Options{Mode: ModeAuto, Docs: docs(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(en.Plan().Mus) != 1 {
		t.Fatalf("µ sites = %d, want 1", len(en.Plan().Mus))
	}
	site := en.Plan().Mus[0]
	if !site.Distributive {
		t.Errorf("Q1 body not algebraically distributive (strict):\n%s", Explain(site.Mu.Kids[1]))
	}
	if !site.Mu.Delta {
		t.Errorf("auto mode did not select µ∆ for Q1")
	}
}

// TestQ2NotDistributive mirrors Figure 9(b): the count aggregate in
// Example 2.4's body blocks the ∪ push-up.
func TestQ2NotDistributive(t *testing.T) {
	q2 := `
let $seed := (<a/>, <p><a/><b><c><d/></c></b></p>)
return with $x seeded by $seed
recurse if (count($x/self::a)) then $x/* else ()`
	m, err := parser.Parse(q2)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(m, Options{Mode: ModeAuto, Docs: docs(t)})
	if err != nil {
		t.Fatal(err)
	}
	site := en.Plan().Mus[0]
	if site.Distributive || site.DistributiveExt {
		t.Errorf("Example 2.4 body wrongly certified distributive:\n%s", Explain(site.Mu.Kids[1]))
	}
	if site.Mu.Delta {
		t.Errorf("auto mode selected µ∆ for a non-distributive body")
	}
	// And µ (Naive) computes the full answer while forced µ∆ loses d.
	seq, _ := relEval(t, q2, ModeAuto)
	if len(seq) != 4 {
		t.Errorf("µ result size = %d, want 4 (a,b,c,d)", len(seq))
	}
	seqD, _ := relEval(t, q2, ModeDelta)
	if len(seqD) != 3 {
		t.Errorf("µ∆ result size = %d, want 3 (a,b,c)", len(seqD))
	}
}

// TestIDVariantSyntacticVsAlgebraic reproduces the §4.1 example: unfolding
// fn:id into a for/where loop defeats the syntactic ds$x(·) rules (the
// general comparison mentions $x) but the algebraic check still certifies
// distributivity, because the where-clause compiles to a ⋉-shaped plan.
func TestIDVariantSyntacticVsAlgebraic(t *testing.T) {
	body := `
for $c in doc("curriculum.xml")/curriculum/course
where $c/@code = $x/prerequisites/pre_code
return $c`
	full := `with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c1"]
recurse ` + body

	// Syntactic: rejected (the general comparison mentions $x).
	bodyExpr, err := parser.ParseExpr(body)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Safe(bodyExpr, "x", dist.ModuleResolver(nil)) {
		t.Errorf("syntactic ds$x wrongly accepts the unfolded id(·) variant")
	}

	// Algebraic: accepted, and µ∆ computes the right answer.
	m, err := parser.Parse(full)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(m, Options{Mode: ModeAuto, Docs: docs(t)})
	if err != nil {
		t.Fatal(err)
	}
	site := en.Plan().Mus[0]
	if !site.Distributive {
		t.Errorf("algebraic check rejects the unfolded id(·) variant:\n%s", Explain(site.Mu.Kids[1]))
	}
	if !site.Mu.Delta {
		t.Errorf("auto mode did not select µ∆")
	}
	seq, _, err := en.Eval()
	if err != nil {
		t.Fatal(err)
	}
	codes := []string{}
	for _, it := range seq {
		if code, ok := it.Node().Attribute("code"); ok {
			codes = append(codes, code)
		}
	}
	if got := strings.Join(codes, " "); got != "c2 c3 c4" {
		t.Errorf("id-variant closure = %q, want \"c2 c3 c4\"", got)
	}
}

// TestNestedFixpoint runs the per-course consistency check through µ∆ —
// the fixpoint executes set-at-a-time across all outer iterations.
func TestNestedFixpoint(t *testing.T) {
	q := `
for $c in doc("curriculum.xml")/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`
	seq, runs := relEval(t, q, ModeAuto)
	if got := xmldoc.SerializeSequence(seq); got != "c5" {
		t.Errorf("consistency check = %q, want \"c5\"", got)
	}
	if len(runs) != 1 {
		t.Fatalf("µ runs = %d, want 1 (set-oriented bulk fixpoint)", len(runs))
	}
	if runs[0].Executions != 1 {
		t.Errorf("µ executions = %d, want 1 — the relational fixpoint runs all iterations at once", runs[0].Executions)
	}
}

// TestDifferentialCorpus compares the relational engine against the
// interpreter item-for-item over a corpus of queries exercising every
// supported construct.
func TestDifferentialCorpus(t *testing.T) {
	corpus := []string{
		"1 + 2", "(1, 2, 3)", "()", `"x"`, "2 * 3 - 1", "7 mod 3", "7 idiv 2", "-(5)",
		"let $a := (1, 2) return ($a, $a)",
		"for $x in (1, 2, 3) return $x + 1",
		"for $x at $i in (5, 6, 7) return $i * 10",
		"for $x in (1, 2), $y in (3, 4) return $x * $y",
		"if (1 < 2) then \"y\" else \"n\"",
		"for $x in (1, 2, 3, 4, 5) where $x mod 2 = 1 return $x",
		"some $x in (1, 2) satisfies $x = 2",
		"every $x in (1, 2) satisfies $x = 2",
		"count((1, 2, 3))", "empty(())", "exists((1, 2))", "not(2 = 3)",
		"(1, 2) != (1, 2)", "(1, 2) < (0, 3)", "2 >= 2",
		`string(3.5)`, `number("4") * 2`, `data(<a>5</a>) + 1`,
		`doc("shop.xml")/shop/item/name/string()`,
		`doc("shop.xml")/shop/item[2]/name/string()`,
		`doc("shop.xml")/shop/item[@cat = "a"]/@price/string()`,
		`doc("shop.xml")/shop/item[@price > 15]/name/string()`,
		`count(doc("shop.xml")//text())`,
		`(doc("shop.xml")//name)[last()]/string()`,
		`doc("shop.xml")/shop/item[1]/following-sibling::item/name/string()`,
		`doc("shop.xml")/shop/item[4]/preceding-sibling::item/name/string()`,
		`doc("shop.xml")/shop/item[2]/parent::shop/@*/string()`,
		`for $i in doc("shop.xml")/shop/item order by $i return 0`, // rejected by rel: skipped below
		`doc("shop.xml")/shop/item/descendant-or-self::node()/name()`,
		`(doc("shop.xml")/shop/item[1], doc("shop.xml")/shop/item[1])`,
		`doc("shop.xml")/shop/item[name = "kiwi"] is (doc("shop.xml")//item)[4]`,
		`for $i in doc("shop.xml")/shop/item return <it n="{$i/name}">{$i/@cat}</it>`,
		`name(doc("curriculum.xml")/id("c2"))`,
		`doc("curriculum.xml")/curriculum/course/id(prerequisites/pre_code)/@code/string()`,
		q1,
		`count(with $x seeded by doc("curriculum.xml")/curriculum/course recurse $x/id(./prerequisites/pre_code))`,
	}
	for _, src := range corpus {
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		ir, err := interp.New(m, interp.Options{Docs: docs(t)}).Eval()
		if err != nil {
			t.Fatalf("interp %q: %v", src, err)
		}
		en, err := NewEngine(m, Options{Mode: ModeAuto, Docs: docs(t)})
		if err != nil {
			if _, ok := err.(*UnsupportedError); ok {
				continue // constructs the relational backend declines
			}
			t.Fatalf("rel compile %q: %v", src, err)
		}
		rs, _, err := en.Eval()
		if err != nil {
			t.Fatalf("rel exec %q: %v", src, err)
		}
		want := xmldoc.SerializeSequence(ir.Value)
		got := xmldoc.SerializeSequence(rs)
		if got != want {
			t.Errorf("engines disagree on %q:\n  interp: %q\n  rel:    %q", src, want, got)
		}
	}
}

func TestExplainQ1PlanShape(t *testing.T) {
	m, err := parser.Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(m, Options{Docs: docs(t)})
	if err != nil {
		t.Fatal(err)
	}
	body := en.Plan().Mus[0].Mu.Kids[1]
	summary := OperatorSummary(body)
	// Figure 9(a): the recursion body is steps, an id lookup, projections
	// and joins — and crucially no count aggregate.
	for _, needed := range []string{"step[child::prerequisites]", "step[child::pre_code]", "id[item]", "recbase"} {
		if !strings.Contains(summary, needed) {
			t.Errorf("Q1 body plan misses %q:\n%s", needed, Explain(body))
		}
	}
	if strings.Contains(summary, "count[") {
		t.Errorf("Q1 body plan unexpectedly aggregates:\n%s", Explain(body))
	}
}
