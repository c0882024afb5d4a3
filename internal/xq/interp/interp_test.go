package interp

import (
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xq/parser"
)

// curriculumXML is the running example of the paper (Figure 1 DTD): course
// c1 requires c2 and c3; c3 requires c4; c4 requires c2; c5 requires c5
// (its own prerequisite, for the xlinkit Rule 5 consistency check).
const curriculumXML = `<!DOCTYPE curriculum [
<!ELEMENT curriculum (course)*>
<!ATTLIST course code ID #REQUIRED>
]>
<curriculum>
<course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
<course code="c2"><prerequisites/></course>
<course code="c3"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
<course code="c4"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
<course code="c5"><prerequisites><pre_code>c5</pre_code></prerequisites></course>
</curriculum>`

func testDocs(t *testing.T) DocResolver {
	t.Helper()
	return func(uri string) (*xdm.Document, error) {
		switch uri {
		case "curriculum.xml":
			return xmldoc.ParseString(curriculumXML, uri)
		}
		return nil, xdm.Errorf(xdm.ErrDoc, "unknown test document %q", uri)
	}
}

func evalQuery(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	if opts.Docs == nil {
		opts.Docs = testDocs(t)
	}
	res, err := EvalString(src, opts)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return res
}

// evalStr evaluates and serializes the result.
func evalStr(t *testing.T, src string) string {
	t.Helper()
	res := evalQuery(t, src, Options{})
	return xmldoc.SerializeSequence(res.Value)
}

func evalErr(t *testing.T, src string) error {
	t.Helper()
	_, err := EvalString(src, Options{Docs: testDocs(t)})
	if err == nil {
		t.Fatalf("eval %q: expected error, got success", src)
	}
	return err
}

func TestLiteralsAndArithmetic(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1", "1"},
		{"1.5", "1.5"},
		{`"hi"`, "hi"},
		{"1 + 2", "3"},
		{"7 - 2 - 1", "4"},
		{"2 * 3 + 1", "7"},
		{"2 + 3 * 4", "14"},
		{"10 div 4", "2.5"},
		{"10 idiv 4", "2"},
		{"10 mod 4", "2"},
		{"-(3)", "-3"},
		{"- 3 + 10", "7"},
		{"1.5 + 1", "2.5"},
		{"(1, 2, 3)", "1 2 3"},
		{"()", ""},
		{"1 to 4", "1 2 3 4"},
		{"4 to 1", ""},
		{"sum(1 to 10)", "55"},
		{"sum(())", "0"},
		{"avg((2, 4))", "3"},
		{"min((3, 1, 2))", "1"},
		{"max((3, 1, 2))", "3"},
		{"abs(-4)", "4"},
		{"floor(1.7)", "1"},
		{"ceiling(1.2)", "2"},
		{"round(2.5)", "3"},
		{"round(-2.5)", "-2"},
		{"count((1, 2, 3))", "3"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1 = 1", "true"},
		{"1 != 1", "false"},
		{"(1, 2) = (2, 3)", "true"},
		{"(1, 2) = (3, 4)", "false"},
		{"(1, 2) != (1, 2)", "true"}, // existential semantics
		{"() = ()", "false"},
		{"1 eq 1", "true"},
		{"1 lt 2", "true"},
		{`"a" lt "b"`, "true"},
		{`"10" = 10`, "false"}, // string vs numeric: incomparable? no — general: string vs integer is a type error... see below
		{"2 >= (1, 5)", "true"},
		{"1 > 2 or 2 > 1", "true"},
		{"1 > 2 and 2 > 1", "false"},
		{"not(1 > 2)", "true"},
	}
	for _, c := range cases {
		if c.in == `"10" = 10` {
			continue // covered in TestComparisonErrors
		}
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestComparisonErrors(t *testing.T) {
	err := evalErr(t, `"10" = 10`)
	if xdm.CodeOf(err) != xdm.ErrType {
		t.Errorf("string=int comparison: got %v, want XPTY0004", err)
	}
	if err := evalErr(t, `(1, 2) eq 1`); xdm.CodeOf(err) != xdm.ErrType {
		t.Errorf("multi-item value comparison: got %v", err)
	}
}

func TestStringFunctions(t *testing.T) {
	cases := []struct{ in, want string }{
		{`concat("a", "b", "c")`, "abc"},
		{`string-join(("a", "b"), "-")`, "a-b"},
		{`contains("hello", "ell")`, "true"},
		{`starts-with("hello", "he")`, "true"},
		{`ends-with("hello", "lo")`, "true"},
		{`substring("hello", 2)`, "ello"},
		{`substring("hello", 2, 3)`, "ell"},
		{`substring-before("a=b", "=")`, "a"},
		{`substring-after("a=b", "=")`, "b"},
		{`string-length("héllo")`, "5"},
		{`normalize-space("  a   b  ")`, "a b"},
		{`upper-case("abc")`, "ABC"},
		{`lower-case("AbC")`, "abc"},
		{`translate("abcb", "b", "d")`, "adcd"},
		{`string(1 + 1)`, "2"},
		{`string(())`, ""},
		{`number("3.5") + 1`, "4.5"},
		{`string(number("zzz"))`, "NaN"},
		{`xs:integer("42") + 1`, "43"},
		{`xs:string(4.5)`, "4.5"},
		{`xs:boolean("true")`, "true"},
		{`xs:double("2") * 2`, "4"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSequenceFunctions(t *testing.T) {
	cases := []struct{ in, want string }{
		{"empty(())", "true"},
		{"exists(())", "false"},
		{"exists((1))", "true"},
		{"reverse((1, 2, 3))", "3 2 1"},
		{"subsequence((1, 2, 3, 4), 2)", "2 3 4"},
		{"subsequence((1, 2, 3, 4), 2, 2)", "2 3"},
		{"insert-before((1, 2), 2, (9))", "1 9 2"},
		{"remove((1, 2, 3), 2)", "1 3"},
		{"index-of((10, 20, 10), 10)", "1 3"},
		{"distinct-values((1, 2, 1, 3, 2))", "1 2 3"},
		{`distinct-values(("a", "a", "b"))`, "a b"},
		{"exactly-one((5))", "5"},
		{"zero-or-one(())", ""},
		{"one-or-more((1, 2))", "1 2"},
		{"deep-equal((1, 2), (1, 2))", "true"},
		{"deep-equal(<a x='1'/>, <a x='1'/>)", "true"},
		{"deep-equal(<a x='1'/>, <a x='2'/>)", "false"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFLWOR(t *testing.T) {
	cases := []struct{ in, want string }{
		{"for $x in (1, 2, 3) return $x * 2", "2 4 6"},
		{"for $x at $i in (10, 20) return $i", "1 2"},
		{"for $x in (1, 2), $y in (10, 20) return $x + $y", "11 21 12 22"},
		{"let $x := 5 return $x + $x", "10"},
		{"for $x in (1, 2, 3, 4) where $x mod 2 = 0 return $x", "2 4"},
		{"for $x in (3, 1, 2) order by $x return $x", "1 2 3"},
		{"for $x in (3, 1, 2) order by $x descending return $x", "3 2 1"},
		{`for $x in ("b", "a") order by $x return $x`, "a b"},
		{"some $x in (1, 2, 3) satisfies $x > 2", "true"},
		{"every $x in (1, 2, 3) satisfies $x > 2", "false"},
		{"every $x in () satisfies $x > 2", "true"},
		{"some $x in (1, 2), $y in (3, 4) satisfies $x + $y = 6", "true"},
		{"if (1 > 2) then 1 else 2", "2"},
		{"if ((1, 2, 3)[. > 2]) then 1 else 2", "1"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPathsAndAxes(t *testing.T) {
	doc := `let $d := <r><a i="1"><b>x</b><b>y</b></a><a i="2"><c><b>z</b></c></a></r> return `
	cases := []struct{ in, want string }{
		{doc + `count($d/a)`, "2"},
		{doc + `count($d//b)`, "3"},
		{doc + `string($d/a[1]/b[2])`, "y"},
		{doc + `string($d/a[@i = "2"]//b)`, "z"},
		{doc + `$d/a/@i`, `i="1" i="2"`},
		{doc + `string($d/a[2]/c/parent::a/@i)`, "2"},
		{doc + `count($d//b/ancestor::a)`, "2"},
		{doc + `count($d//node())`, "9"},
		{doc + `count($d//text())`, "3"},
		{doc + `$d/a[1]/b[1]/following-sibling::b/string()`, "y"},
		{doc + `$d/a[2]/preceding-sibling::a/@i/string()`, "1"},
		{doc + `count($d/a[1]/following::b)`, "1"},
		{doc + `count($d/a[2]/c/b/preceding::b)`, "2"},
		// An attribute's owner's content follows it in document order.
		{doc + `$d/a[1]/@i/following::b/string()`, "x y z"},
		{`for $n in <a x="1"><b/><c/></a>/@x/following::* return name($n)`, "b c"},
		{doc + `$d/a/self::a[1]/@i/string()`, "1 2"}, // step predicates apply per context node
		{doc + `($d/a/self::a)[1]/@i/string()`, "1"},
		{doc + `string(($d//b)[last()])`, "z"},
		{doc + `string(($d//b)[position() = 2])`, "y"},
		{doc + `count($d/a/descendant-or-self::*)`, "6"},
		{doc + `name($d/a[1]/ancestor-or-self::r)`, "r"},
		{doc + `count($d/child::element())`, "2"},
		{doc + `count($d/a/attribute::*)`, "2"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDocOrderAndSetOps(t *testing.T) {
	doc := `let $d := <r><a/><b/><c/></r> return `
	cases := []struct{ in, want string }{
		{doc + `for $n in ($d/c, $d/a) union $d/b return name($n)`, "a b c"},
		{doc + `for $n in ($d/a, $d/b) intersect $d/* return name($n)`, "a b"},
		{doc + `for $n in $d/* except $d/b return name($n)`, "a c"},
		{doc + `count(($d/a, $d/a) union ())`, "1"},
		{doc + `$d/a is $d/a`, "true"},
		{doc + `$d/a is $d/b`, "false"},
		{doc + `$d/a << $d/b`, "true"},
		{doc + `$d/c >> $d/b`, "true"},
		// reverse axis results come back in document order
		{doc + `for $n in $d/c/preceding-sibling::* return name($n)`, "a b"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestConstructors(t *testing.T) {
	cases := []struct{ in, want string }{
		{`<a/>`, `<a/>`},
		{`<a b="1" c="x"/>`, `<a b="1" c="x"/>`},
		{`<a>text</a>`, `<a>text</a>`},
		{`<a>{1 + 1}</a>`, `<a>2</a>`},
		{`<a>{1, 2}</a>`, `<a>1 2</a>`},
		{`<a>x{"y"}z</a>`, `<a>xyz</a>`},
		{`<a>{1}{2}</a>`, `<a>12</a>`},
		{`<a><b/><c/></a>`, `<a><b/><c/></a>`},
		{`<a x="{1 + 1}"/>`, `<a x="2"/>`},
		{`<a x="v{1}w"/>`, `<a x="v1w"/>`},
		{`<a>&lt;&amp;&gt;</a>`, `<a>&lt;&amp;&gt;</a>`},
		{`<a>{{literal}}</a>`, `<a>{literal}</a>`},
		{`element foo { "x" }`, `<foo>x</foo>`},
		{`element { concat("f", "oo") } { 1 }`, `<foo>1</foo>`},
		{`element a { attribute b { 1 }, "c" }`, `<a b="1">c</a>`},
		{`string(text { "hi" })`, `hi`},
		{`count(text { () })`, `0`},
		{`<a>{<b/>}</a>`, `<a><b/></a>`},
		{`let $b := <b>v</b> return <a>{$b}</a>`, `<a><b>v</b></a>`},
		{`<person>{ <x id="7"/>/@id }</person>`, `<person id="7"/>`},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestConstructorCopiesContent(t *testing.T) {
	// Content nodes are deep-copied: the copy is a distinct identity.
	got := evalStr(t, `let $b := <b/> let $a := <a>{$b}</a> return $b is $a/b`)
	if got != "false" {
		t.Errorf("constructor content copy: identity preserved, want fresh copy")
	}
	// And each constructor evaluation yields a fresh node.
	got = evalStr(t, `count((for $i in (1, 2) return <n/>) union ())`)
	if got != "2" {
		t.Errorf("constructed nodes deduplicated, want 2 distinct, got %s", got)
	}
}

func TestTypeswitch(t *testing.T) {
	cases := []struct{ in, want string }{
		{`typeswitch (1) case xs:integer return "int" default return "other"`, "int"},
		{`typeswitch ("s") case xs:integer return "int" case xs:string return "str" default return "other"`, "str"},
		{`typeswitch (<a/>) case element(b) return "b" case element(a) return "a" default return "other"`, "a"},
		{`typeswitch (<a/>) case $v as element() return name($v) default return "other"`, "a"},
		{`typeswitch (()) case empty-sequence() return "empty" default return "other"`, "empty"},
		{`typeswitch ((1, 2)) case xs:integer return "one" case xs:integer* return "many" default return "o"`, "many"},
		{`typeswitch (1) case xs:string return 0 default $d return $d + 1`, "2"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestUserFunctions(t *testing.T) {
	src := `
declare function local:fact($n as xs:integer) as xs:integer {
  if ($n le 1) then 1 else $n * local:fact($n - 1)
};
local:fact(6)`
	if got := evalStr(t, src); got != "720" {
		t.Errorf("fact(6) = %q, want 720", got)
	}
	src2 := `
declare function double($s as node()*) as node()* { $s };
declare variable $g := 10;
declare function addg($n) { $n + $g };
addg(5)`
	if got := evalStr(t, src2); got != "15" {
		t.Errorf("global in function = %q, want 15", got)
	}
}

func TestFnDocAndID(t *testing.T) {
	cases := []struct{ in, want string }{
		{`count(doc("curriculum.xml")/curriculum/course)`, "5"},
		{`doc("curriculum.xml")/curriculum/course[@code = "c1"]/prerequisites/pre_code/string()`, "c2 c3"},
		{`name(doc("curriculum.xml")/id("c3"))`, "course"},
		{`doc("curriculum.xml")/id("c3")/@code/string()`, "c3"},
		{`count(doc("curriculum.xml")/id(("c1", "c2")))`, "2"},
		{`doc("curriculum.xml")/curriculum/course[1]/id(./prerequisites/pre_code)/@code/string()`, "c2 c3"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.in); got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
}

// Q1 is the paper's Example 2.2: all direct or indirect prerequisites of
// course c1, via the new IFP form.
const q1 = `with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c1"]
recurse $x/id(./prerequisites/pre_code)`

func TestQ1Prerequisites(t *testing.T) {
	for _, mode := range []Mode{ModeAuto, ModeNaive, ModeDelta} {
		res := evalQuery(t, `(`+q1+`)/@code/string()`, Options{Mode: mode})
		got := xmldoc.SerializeSequence(res.Value)
		if got != "c2 c3 c4" {
			t.Errorf("mode %v: Q1 = %q, want \"c2 c3 c4\"", mode, got)
		}
	}
}

func TestQ1AutoSelectsDelta(t *testing.T) {
	res := evalQuery(t, q1, Options{Mode: ModeAuto})
	if len(res.IFPRuns) != 1 {
		t.Fatalf("expected 1 IFP run, got %d", len(res.IFPRuns))
	}
	run := res.IFPRuns[0]
	if !run.Distributive {
		t.Errorf("Q1 body not recognized as distributive: %s", run.Rule)
	}
	if run.Algorithm.String() != "Delta" {
		t.Errorf("auto mode picked %v for distributive body", run.Algorithm)
	}
	if run.Stats.Depth < 2 {
		t.Errorf("Q1 recursion depth = %d, want >= 2", run.Stats.Depth)
	}
}

func TestQ1NaiveFeedsMoreNodes(t *testing.T) {
	naive := evalQuery(t, q1, Options{Mode: ModeNaive}).IFPRuns[0]
	delta := evalQuery(t, q1, Options{Mode: ModeDelta}).IFPRuns[0]
	if naive.Stats.NodesFedBack <= delta.Stats.NodesFedBack {
		t.Errorf("naive fed %d nodes, delta %d — naive should feed strictly more",
			naive.Stats.NodesFedBack, delta.Stats.NodesFedBack)
	}
	if naive.Stats.ResultSize != delta.Stats.ResultSize {
		t.Errorf("result sizes differ: naive %d, delta %d", naive.Stats.ResultSize, delta.Stats.ResultSize)
	}
}

// TestExample24Divergence reproduces the table of Example 2.4: a
// non-distributive body for which Naïve computes (a,b,c,d) but Delta only
// (a,b,c). Definition 2.1 feeds the seed through the body once, so the test
// uses a seed whose image under the body is the example's iteration-0 state
// (a,b) — see EXPERIMENTS.md for the faithfulness note.
func TestExample24Divergence(t *testing.T) {
	q2 := `
let $seed := (<a/>, <p><a/><b><c><d/></c></b></p>)
return with $x seeded by $seed
recurse if (count($x/self::a)) then $x/* else ()`
	naive := evalQuery(t, q2, Options{Mode: ModeNaive})
	delta := evalQuery(t, q2, Options{Mode: ModeDelta})
	nameOf := func(res *Result) string {
		var names []string
		for _, it := range res.Value {
			names = append(names, it.Node().Name())
		}
		return strings.Join(names, ",")
	}
	if got := nameOf(naive); got != "a,b,c,d" {
		t.Errorf("Naive computed (%s), want (a,b,c,d)", got)
	}
	if got := nameOf(delta); got != "a,b,c" {
		t.Errorf("Delta computed (%s), want (a,b,c)", got)
	}
	// Auto mode must refuse Delta here (the body inspects $x as a whole).
	auto := evalQuery(t, q2, Options{Mode: ModeAuto})
	if got := nameOf(auto); got != "a,b,c,d" {
		t.Errorf("Auto mode computed (%s), want Naive's (a,b,c,d)", got)
	}
	if auto.IFPRuns[0].Distributive {
		t.Errorf("Example 2.4 body wrongly certified distributive")
	}
}

// TestFixTemplateEquivalence checks that the IFP form agrees with the
// user-defined fix(·) template of Figure 2 and the delta(·,·) template of
// Figure 4, run as ordinary recursive XQuery functions.
//
// Erratum: Figure 2 as printed terminates on `empty($x except $res)`
// ($x ⊆ rec($x)), which diverges on chains and on the curriculum fixture;
// the inflationary-fixed-point termination condition is rec($x) ⊆ $x,
// i.e. `empty($res except $x)` (returning the accumulated $x). See
// EXPERIMENTS.md.
func TestFixTemplateEquivalence(t *testing.T) {
	fig2 := `
declare function rec($cs) as node()* {
  $cs/id(./prerequisites/pre_code)
};
declare function fix($x) as node()* {
  let $res := rec($x)
  return if (empty($res except $x))
         then $x
         else fix($res union $x)
};
let $seed := doc("curriculum.xml")/curriculum/course[@code = "c1"]
return fix(rec($seed))/@code/string()`
	if got := evalStr(t, fig2); got != "c2 c3 c4" {
		t.Errorf("Figure 2 fix template = %q, want \"c2 c3 c4\"", got)
	}
	fig4 := `
declare function rec($cs) as node()* {
  $cs/id(./prerequisites/pre_code)
};
declare function delta($x, $res) as node()* {
  let $d := rec($x) except $res
  return if (empty($d))
         then $res
         else delta($d, $d union $res)
};
let $seed := doc("curriculum.xml")/curriculum/course[@code = "c1"]
return delta(rec($seed), rec($seed))/@code/string()`
	if got := evalStr(t, fig4); got != "c2 c3 c4" {
		t.Errorf("Figure 4 delta template = %q, want \"c2 c3 c4\"", got)
	}
}

// TestCurriculumConsistencyRule is the xlinkit Rule 5 check: courses among
// their own prerequisites (c5 in the fixture).
func TestCurriculumConsistencyRule(t *testing.T) {
	q := `
for $c in doc("curriculum.xml")/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`
	if got := evalStr(t, q); got != "c5" {
		t.Errorf("consistency check = %q, want \"c5\"", got)
	}
}

func TestFixpointUndefinedWithConstructors(t *testing.T) {
	_, err := EvalString(
		`with $x seeded by <a/> recurse <b/>`,
		Options{MaxIterations: 50})
	if err == nil {
		t.Fatal("constructor body IFP terminated, want divergence error")
	}
	if xdm.CodeOf(err) != xdm.ErrIFP {
		t.Errorf("divergence error code = %v, want IFPX0001", err)
	}
}

func TestFixpointSeedMustBeNodes(t *testing.T) {
	_, err := EvalString(`with $x seeded by (1, 2) recurse $x`, Options{})
	if xdm.CodeOf(err) != xdm.ErrType {
		t.Errorf("atomic seed: got %v, want XPTY0004", err)
	}
}

func TestNestedFixpointAggregation(t *testing.T) {
	q := `
for $c in doc("curriculum.xml")/curriculum/course
return count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code))`
	res := evalQuery(t, q, Options{Mode: ModeAuto})
	if got := xmldoc.SerializeSequence(res.Value); got != "3 0 2 1 1" {
		t.Errorf("per-course closure sizes = %q, want \"3 0 2 1 1\"", got)
	}
	if len(res.IFPRuns) != 1 {
		t.Fatalf("IFP sites = %d, want 1 (aggregated)", len(res.IFPRuns))
	}
	if res.IFPRuns[0].Executions != 5 {
		t.Errorf("IFP executions = %d, want 5", res.IFPRuns[0].Executions)
	}
}

func TestErrorsCarryCodes(t *testing.T) {
	cases := []struct {
		in   string
		code xdm.ErrCode
	}{
		{"$nosuch", xdm.ErrUndefVar},
		{"nosuchfn()", xdm.ErrUndefVar},
		{"1 idiv 0", xdm.ErrDivZero},
		{".", xdm.ErrCtxItem},
		{"position()", xdm.ErrCtxItem},
		{`error("boom")`, xdm.ErrUserFail},
		{`doc("missing.xml")`, xdm.ErrDoc},
		{`exactly-one(())`, xdm.ErrCard},
		{`count(1, 2)`, xdm.ErrArity},
	}
	for _, c := range cases {
		err := evalErr(t, c.in)
		if xdm.CodeOf(err) != c.code {
			t.Errorf("%s: error %v, want code %s", c.in, err, c.code)
		}
	}
}

func TestRecursionDepthGuard(t *testing.T) {
	src := `declare function loop($x) { loop($x) }; loop(1)`
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(m, Options{MaxCallDepth: 64}).Eval()
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("unbounded recursion: %v, want depth error", err)
	}
}
