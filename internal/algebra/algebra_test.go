package algebra

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leaktest"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/ast"
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

// compileEngine builds an engine the way production does: CompilePlan in
// mode (optimize, when non-nil, rewrites the plan), then NewEngineFromPlan.
func compileEngine(t *testing.T, m *ast.Module, mode core.Mode, optimize func(*Plan), opts Options) (*Plan, *Engine) {
	t.Helper()
	plan, err := CompilePlan(m, mode, false, optimize, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return plan, NewEngineFromPlan(plan, opts)
}

func relEval(t *testing.T, src string, mode core.Mode) (xdm.Sequence, []MuRun) {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, en := compileEngine(t, m, mode, nil, Options{Docs: docs(t)})
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
	for _, mode := range []core.Mode{ModeAuto, ModeNaive, ModeDelta} {
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
	plan, _ := compileEngine(t, m, ModeAuto, nil, Options{Docs: docs(t)})
	if len(plan.Mus) != 1 {
		t.Fatalf("µ sites = %d, want 1", len(plan.Mus))
	}
	site := plan.Mus[0]
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
	plan, _ := compileEngine(t, m, ModeAuto, nil, Options{Docs: docs(t)})
	site := plan.Mus[0]
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
	plan, en := compileEngine(t, m, ModeAuto, nil, Options{Docs: docs(t)})
	site := plan.Mus[0]
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

// closureQuery is the xlinkit consistency check over a generated
// curriculum: the loop-lifted fixpoint carries every course's prerequisite
// closure at once, which puts thousands of rows through the step joins,
// join probes and per-iteration absorbs each round.
const closureQuery = `
for $c in doc("curriculum.xml")/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`

func curriculumDocs(t *testing.T, courses int) func(string) (*xdm.Document, error) {
	t.Helper()
	doc, err := xmldoc.ParseString(xmlgen.Curriculum(xmlgen.CurriculumSized(courses)), "curriculum.xml")
	if err != nil {
		t.Fatal(err)
	}
	return func(uri string) (*xdm.Document, error) { return doc, nil }
}

func evalClosure(t *testing.T, mode core.Mode, opts Options) (xdm.Sequence, []MuRun, error) {
	t.Helper()
	m, err := parser.Parse(closureQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, en := compileEngine(t, m, mode, nil, opts)
	return en.Eval()
}

// TestMuParallelMatchesSequential: Options.Parallelism is deprecated and
// ignored, so any width evaluates exactly like the default — the same
// sequence and the same µ instrumentation.
func TestMuParallelMatchesSequential(t *testing.T) {
	docs := curriculumDocs(t, 260)
	for _, mode := range []core.Mode{ModeNaive, ModeDelta} {
		want, wantRuns, err := evalClosure(t, mode, Options{Docs: docs})
		if err != nil {
			t.Fatalf("mode=%v: %v", mode, err)
		}
		got, gotRuns, err := evalClosure(t, mode, Options{Docs: docs, Parallelism: 4})
		if err != nil {
			t.Fatalf("mode=%v Parallelism=4: %v", mode, err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRuns, wantRuns) {
			t.Fatalf("mode=%v: Parallelism=4 changed the evaluation", mode)
		}
	}
}

// TestMuCancellation cancels a fixpoint mid-execution: the engine must
// return the context's error and leave no goroutine behind, and an
// already-cancelled context must refuse to start rounds at all.
func TestMuCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	docs := curriculumDocs(t, 260)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, _, err := evalClosure(t, ModeAuto, Options{Docs: docs, Context: pre}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := evalClosure(t, ModeAuto, Options{Docs: docs, Context: ctx})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// A fast machine may finish the whole query before cancel lands;
		// the only acceptable non-nil error is the context's.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel: got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled evaluation did not return")
	}
	leaktest.Wait(t, before)
}

// TestMuErrorDeterministic forces a type error inside a fixpoint round (a
// body yielding non-nodes): every evaluation, in every mode and on a fresh
// engine each time, must fail with the same typed error.
func TestMuErrorDeterministic(t *testing.T) {
	docs := curriculumDocs(t, 120)
	m, err := parser.Parse(`with $x seeded by doc("curriculum.xml")/curriculum/course
	                        recurse ($x/id(./prerequisites/pre_code), 42)`)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for i, mode := range []core.Mode{ModeAuto, ModeNaive, ModeDelta, ModeAuto} {
		_, en := compileEngine(t, m, mode, nil, Options{Docs: docs})
		_, _, evalErr := en.Eval()
		if xdm.CodeOf(evalErr) != xdm.ErrType {
			t.Fatalf("mode=%v: got %v, want a type error", mode, evalErr)
		}
		if i == 0 {
			want = evalErr.Error()
		} else if evalErr.Error() != want {
			t.Fatalf("mode=%v: error %q differs from the first run's %q", mode, evalErr.Error(), want)
		}
	}
}

// TestArithmeticGlossesToNaN pins the relational engine's documented gloss:
// every error of the xdm arithmetic kernel — division by zero, overflow, a
// non-numeric operand — yields NaN, where the interpreter raises it.
func TestArithmeticGlossesToNaN(t *testing.T) {
	for _, src := range []string{
		"7 idiv 0", "7 mod 0", "1 div 0", `"3" + 1`, "true() + 1",
		"3037000500 * 3037000500", "-(-9223372036854775807 - 1)",
	} {
		if got := relStr(t, src); got != "NaN" {
			t.Errorf("%s = %q on rel, want NaN", src, got)
		}
		m, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interp.New(m, interp.Options{}).Eval(); err == nil {
			t.Errorf("%s: interpreter raised no error", src)
		}
	}
}

func TestExplainQ1PlanShape(t *testing.T) {
	m, err := parser.Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := compileEngine(t, m, ModeAuto, nil, Options{Docs: docs(t)})
	body := plan.Mus[0].Mu.Kids[1]
	summary := OperatorSummary(Operators(body))
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
