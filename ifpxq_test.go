package ifpxq

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

func nodeItem(d *xdm.Document) xdm.Item { return xdm.NewNode(d.Root()) }

const curriculumXML = `<!DOCTYPE curriculum [
<!ATTLIST course code ID #REQUIRED>
]>
<curriculum>
<course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
<course code="c2"><prerequisites/></course>
<course code="c3"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
<course code="c4"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
</curriculum>`

const q1 = `(with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c1"]
recurse $x/id(./prerequisites/pre_code))/@code/string()`

func docs() DocResolver {
	return DocsFromStrings(map[string]string{"curriculum.xml": curriculumXML})
}

func TestPublicAPIBothEngines(t *testing.T) {
	q, err := Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineInterpreter, EngineRelational} {
		for _, mode := range []Mode{ModeAuto, ModeNaive, ModeDelta} {
			res, err := q.Eval(Options{Engine: engine, Mode: mode, Docs: docs()})
			if err != nil {
				t.Fatalf("engine %d mode %d: %v", engine, mode, err)
			}
			if got := res.String(); got != "c2 c3 c4" {
				t.Errorf("engine %d mode %d: %q", engine, mode, got)
			}
			if res.Count() != 3 {
				t.Errorf("count = %d", res.Count())
			}
			if len(res.Fixpoints) != 1 {
				t.Fatalf("fixpoint stats missing")
			}
		}
	}
}

func TestAutoModePicksDeltaEverywhere(t *testing.T) {
	q := MustParse(q1)
	for _, engine := range []Engine{EngineInterpreter, EngineRelational} {
		res, err := q.Eval(Options{Engine: engine, Docs: docs()})
		if err != nil {
			t.Fatal(err)
		}
		fp := res.Fixpoints[0]
		if fp.Algorithm.String() != "Delta" || !fp.Distributive {
			t.Errorf("engine %d: auto picked %v (distributive=%v)", engine, fp.Algorithm, fp.Distributive)
		}
	}
}

func TestDistributivityReport(t *testing.T) {
	q := MustParse(q1)
	reps := q.Distributivity()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if !reps[0].Syntactic || !reps[0].Algebraic || !reps[0].AlgebraicExt {
		t.Errorf("Q1 should pass every check: %+v", reps[0])
	}
	// A non-distributive body fails both.
	q2 := MustParse(`with $x seeded by doc("curriculum.xml")/curriculum/course
recurse if (count($x) > 2) then $x/id(prerequisites/pre_code) else ()`)
	rep := q2.Distributivity()[0]
	if rep.Syntactic || rep.Algebraic {
		t.Errorf("count-guarded body wrongly certified: %+v", rep)
	}
}

func TestExplainPlan(t *testing.T) {
	q := MustParse(q1)
	ex, err := q.Explain(ModeAuto, Opt0)
	if err != nil {
		t.Fatal(err)
	}
	for _, needed := range []string{"mu", "recbase", "id[item]"} {
		if !strings.Contains(ex.Raw, needed) {
			t.Errorf("plan misses %q:\n%s", needed, ex.Raw)
		}
	}
}

func TestExplainRawAndOptimized(t *testing.T) {
	q := MustParse(q1)
	ex, err := q.Explain(ModeAuto, Opt1)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Raw == "" || ex.Optimized == "" {
		t.Fatalf("Explain should render both plans, got raw=%d optimized=%d bytes",
			len(ex.Raw), len(ex.Optimized))
	}
	total := func(ops map[string]int) int {
		n := 0
		for _, c := range ops {
			n += c
		}
		return n
	}
	if total(ex.OptimizedOps) >= total(ex.RawOps) {
		t.Errorf("optimizer did not shrink the plan: raw %d ops, optimized %d ops",
			total(ex.RawOps), total(ex.OptimizedOps))
	}
	at0, err := q.Explain(ModeAuto, Opt0)
	if err != nil {
		t.Fatal(err)
	}
	if at0.Optimized != "" || at0.OptimizedOps != nil {
		t.Errorf("Opt0 explain should carry no optimized plan")
	}

	// The optimizer must not change what the query returns.
	r0, err := q.Eval(Options{Engine: EngineRelational, Docs: docs(), Opt: Opt0})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := q.Eval(Options{Engine: EngineRelational, Docs: docs(), Opt: Opt1})
	if err != nil {
		t.Fatal(err)
	}
	if r0.String() != r1.String() {
		t.Errorf("Opt0 %q vs Opt1 %q", r0.String(), r1.String())
	}
}

func TestRegularXPathEntryPoint(t *testing.T) {
	q, err := ParseRegularXPath(`(curriculum/course)+`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDocument(curriculumXML, "curriculum.xml")
	if err != nil {
		t.Fatal(err)
	}
	item := nodeItem(d)
	res, err := q.Eval(Options{ContextItem: &item})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 4 {
		t.Errorf("course closure = %d, want 4", res.Count())
	}
}

func TestHintAPI(t *testing.T) {
	q := MustParse(`with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c1"]
recurse if (count($x) >= 1) then $x/id(./prerequisites/pre_code) else ()`)
	if q.Distributivity()[0].Syntactic {
		t.Fatal("pre-hint body should not be certified")
	}
	h := q.Hint()
	if !h.Distributivity()[0].Syntactic {
		t.Errorf("hinted body not certified; source: %s", h.Source())
	}
	r1, err := q.Eval(Options{Docs: docs()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Eval(Options{Docs: docs()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() == "" || r1.Count() != r2.Count() {
		t.Errorf("hint changed the result: %q vs %q", r1.String(), r2.String())
	}
	if r2.Fixpoints[0].Algorithm.String() != "Delta" {
		t.Errorf("hinted query still runs %v", r2.Fixpoints[0].Algorithm)
	}
}

// Two queries whose fixpoint sites the compiler numbers differently from
// a walk of the query body: a function's site compiles at its call, after
// nothing of the body, and a prolog variable's site compiles first.
const (
	funcSiteQuery = `declare function local:f($s) { with $x seeded by $s recurse $x/b };
(local:f(doc("a.xml")/a), with $y seeded by doc("a.xml")/a recurse if (count($y) > 2) then () else $y/b)`
	varSiteQuery = `declare variable $v := with $z seeded by doc("a.xml")/a recurse if (count($z) > 2) then () else $z/b;
($v, with $x seeded by doc("a.xml")/a recurse $x/b)`
)

// TestDistributivityPairsVerdictsWithSites: each site reports its own
// algebraic verdicts, prolog variables included, and a function called
// twice reports once.
func TestDistributivityPairsVerdictsWithSites(t *testing.T) {
	type verdict struct {
		Var                                string
		Syntactic, Algebraic, AlgebraicExt bool
	}
	for _, c := range []struct {
		query string
		want  []verdict
	}{
		{funcSiteQuery, []verdict{{"x", true, true, true}, {"y", false, false, false}}},
		{varSiteQuery, []verdict{{"z", false, false, false}, {"x", true, true, true}}},
		{`declare function local:f($s) { with $x seeded by $s recurse $x/b }; (local:f(doc("a.xml")/a), local:f(doc("a.xml")/c))`,
			[]verdict{{"x", true, true, true}}},
	} {
		var got []verdict
		for _, r := range MustParse(c.query).Distributivity() {
			if r.AlgebraicError != "" {
				t.Errorf("%s: $%s: %s", c.query, r.Var, r.AlgebraicError)
			}
			got = append(got, verdict{r.Var, r.Syntactic, r.Algebraic, r.AlgebraicExt})
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s:\ngot  %v\nwant %v", c.query, got, c.want)
		}
	}
	reps := MustParse(`declare function local:f($s) { with $x seeded by $s recurse $x/b }; 1`).Distributivity()
	if len(reps) != 1 || reps[0].AlgebraicError == "" || reps[0].Algebraic {
		t.Errorf("a site no call reaches has no algebraic verdict: %+v", reps)
	}
}

// TestHintReachesEverySite: the hint rewrites fixpoints under element
// constructors, in order-by keys and in prolog variables too, and leaves
// the results alone on distributive bodies.
func TestHintReachesEverySite(t *testing.T) {
	d := DocsFromStrings(map[string]string{"a.xml": `<a><b><b/></b><b/></a>`})
	for _, src := range []string{
		`<r>{with $x seeded by doc("a.xml")/a recurse $x/b}</r>`,
		`for $i in (1, 2) order by count(with $x seeded by doc("a.xml")/a recurse $x/b) descending return $i`,
		`declare variable $v := with $x seeded by doc("a.xml")/a recurse $x/b; count($v)`,
	} {
		q := MustParse(src)
		h := q.Hint()
		exprs := []ast.Expr{h.Module().Body}
		for _, v := range h.Module().Vars {
			exprs = append(exprs, v.Value)
		}
		hinted := 0
		for _, e := range exprs {
			ast.Walk(e, func(e ast.Expr) bool {
				if fp, ok := e.(*ast.Fixpoint); ok {
					if f, ok := fp.Body.(*ast.For); ok {
						if v, ok := f.In.(*ast.VarRef); ok && v.Name == fp.Var {
							hinted++
						}
					}
				}
				return true
			})
		}
		if hinted != 1 {
			t.Errorf("%s: body not hinted: %s", src, h.Source())
		}
		r1, err1 := q.Eval(Options{Docs: d})
		r2, err2 := h.Eval(Options{Docs: d})
		if err1 != nil || err2 != nil || r1.String() != r2.String() {
			t.Errorf("%s: hint changed the result: %v %v / %v %v", src, r1, err1, r2, err2)
		}
	}
}

func TestDocsFromDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c.xml"), []byte(curriculumXML), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := EvalString(`count(doc("c.xml")/curriculum/course)`,
		Options{Docs: DocsFromDir(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "4" {
		t.Errorf("count = %s", res.String())
	}
	// path escape is rejected
	if _, err := EvalString(`doc("../../etc/passwd")`, Options{Docs: DocsFromDir(dir)}); err == nil {
		t.Errorf("directory escape not rejected")
	}
}

func TestStrictVsExtendedOption(t *testing.T) {
	// A body routing the recursion variable through the left side of
	// except: rejected strictly (Table 1), admitted by the extended rules.
	src := `with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "c1"]
recurse $x/id(./prerequisites/pre_code) except doc("curriculum.xml")/curriculum/course[@code = "c2"]`
	q := MustParse(src)
	rep := q.Distributivity()[0]
	if rep.Algebraic {
		t.Errorf("strict check must reject except: %+v", rep)
	}
	if !rep.AlgebraicExt {
		t.Errorf("extended check should admit left-of-except: %+v", rep)
	}
	// Both modes still compute the same (x \ R is genuinely distributive).
	rs, err := q.Eval(Options{Engine: EngineRelational, Mode: ModeNaive, Docs: docs()})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := q.Eval(Options{Engine: EngineRelational, Mode: ModeDelta, Docs: docs()})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Count() != rd.Count() {
		t.Errorf("naive %d vs delta %d on a distributive except-body", rs.Count(), rd.Count())
	}
}
