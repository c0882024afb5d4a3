package opt_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
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

const hospitalXML = `<hospital>
<patient id="p1"><diagnosis>hd</diagnosis><parents>
  <patient id="p2"><diagnosis>hd</diagnosis><parents>
    <patient id="p4"><diagnosis>flu</diagnosis><parents/></patient>
    <patient id="p5"><diagnosis>hd</diagnosis><parents/></patient>
  </parents></patient>
  <patient id="p3"><diagnosis>ok</diagnosis><parents/></patient>
</parents></patient>
<patient id="p6"><diagnosis>flu</diagnosis><parents/></patient>
</hospital>`

func docs(t testing.TB) func(string) (*xdm.Document, error) {
	t.Helper()
	cache := map[string]*xdm.Document{}
	srcs := map[string]string{
		"curriculum.xml": curriculumXML,
		"shop.xml":       shopXML,
		"hospital.xml":   hospitalXML,
	}
	return func(uri string) (*xdm.Document, error) {
		if d, ok := cache[uri]; ok {
			return d, nil
		}
		src, ok := srcs[uri]
		if !ok {
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

// evalBoth runs one query through the relational engine with the optimizer
// off and on, returning both outcomes plus the two engines' plans.
func evalBoth(t *testing.T, src string, mode core.Mode) (raw, optd string, rawRuns, optRuns []algebra.MuRun, rawPlan, optPlan *algebra.Plan) {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p0, err := algebra.CompilePlan(m, mode, false, nil, nil)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	s0, r0, err := algebra.NewEngineFromPlan(p0, algebra.Options{Docs: docs(t)}).Eval()
	if err != nil {
		t.Fatalf("exec -O0 %q: %v", src, err)
	}
	m2, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := algebra.CompilePlan(m2, mode, false, opt.Optimize, nil)
	if err != nil {
		t.Fatalf("compile -O1 %q: %v", src, err)
	}
	s1, r1, err := algebra.NewEngineFromPlan(p1, algebra.Options{Docs: docs(t)}).Eval()
	if err != nil {
		t.Fatalf("exec -O1 %q: %v", src, err)
	}
	return xmldoc.SerializeSequence(s0), xmldoc.SerializeSequence(s1), r0, r1, p0, p1
}

// differentialQueries covers every operator family the rules touch:
// conditions (join→semijoin under δ), fixpoints over fused and general
// paths (ddo elimination over keyed feeds), constructors (consing
// exclusion), sequence/union plumbing, grouping, and numeric plumbing.
var differentialQueries = []string{
	`1 + 2 * 3`,
	`(1, 2, 3, 2)`,
	`for $x in (1, 2, 3) return $x * 2`,
	`for $x at $i in (10, 20, 30) where $i >= 2 return $x`,
	`count(doc("shop.xml")/shop/item)`,
	`doc("shop.xml")/shop/item[@price = "10"]/name/string()`,
	`doc("shop.xml")/shop/item[2]/name/string()`,
	`doc("shop.xml")//item[@cat = "a" and @price = "10"]/name/string()`,
	`for $i in doc("shop.xml")//item where $i/@price = "10" return $i/name/string()`,
	`if (doc("shop.xml")//item[@cat = "z"]) then "yes" else "no"`,
	`(doc("shop.xml")//item[@cat="a"] | doc("shop.xml")//item[@price="40"])/name/string()`,
	`doc("shop.xml")//item intersect doc("shop.xml")//item[@cat="a"]`,
	`(doc("shop.xml")//item except doc("shop.xml")//item[@cat="a"])/name/string()`,
	`some $i in doc("shop.xml")//item satisfies $i/@price = "40"`,
	`every $i in doc("shop.xml")//item satisfies $i/@price = "10"`,
	`<out>{ for $i in doc("shop.xml")//item return <n>{ $i/name/string() }</n> }</out>`,
	`count(with $x seeded by doc("curriculum.xml")//course[@code = "c1"]
	 recurse $x/id(./prerequisites/pre_code))`,
	`for $c in doc("curriculum.xml")/curriculum/course
	 where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
	 return $c/@code/string()`,
	`count(with $x seeded by doc("hospital.xml")/hospital/patient[diagnosis = "hd"]
	 recurse $x/parents/patient[diagnosis = "hd"])`,
	`for $p in (with $x seeded by doc("hospital.xml")//patient[diagnosis = "hd"]
	            recurse $x/parents/patient)
	 return $p/@id/string()`,
	`count(with $x seeded by doc("curriculum.xml")/curriculum/course[@code = "nosuchcourse"]
	 recurse $x/id(./prerequisites/pre_code))`,
	`string(doc("shop.xml")//item[1]/@price)`,
	`doc("shop.xml")//item[last()]/name/string()`,
}

func TestOptimizedPlansAgreeWithRaw(t *testing.T) {
	for _, src := range differentialQueries {
		for _, mode := range []core.Mode{core.ModeNaive, core.ModeAuto} {
			raw, optd, r0, r1, _, _ := evalBoth(t, src, mode)
			if raw != optd {
				t.Errorf("mode=%v query %s:\n -O0: %q\n -O1: %q", mode, src, raw, optd)
			}
			if !reflect.DeepEqual(r0, r1) {
				t.Errorf("mode=%v query %s: fixpoint stats diverge:\n -O0: %+v\n -O1: %+v",
					mode, src, r0, r1)
			}
		}
	}
}

func opCount(root *algebra.Node) int {
	total := 0
	for _, c := range algebra.Operators(root) {
		total += c
	}
	return total
}

func TestOptimizerShrinksBenchmarkPlans(t *testing.T) {
	// The acceptance bar: the optimizer provably does work on the paper's
	// benchmark queries, not just on synthetic plans.
	queries := map[string]string{
		"curriculum": `for $c in doc("curriculum.xml")/curriculum/course
			where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
			return $c/@code/string()`,
		"hospital": `count(with $x seeded by doc("hospital.xml")/hospital/patient[diagnosis = "hd"]
			recurse $x/parents/patient[diagnosis = "hd"])`,
	}
	for name, src := range queries {
		_, _, _, _, p0, p1 := evalBoth(t, src, core.ModeAuto)
		if before, after := opCount(p0.Root), opCount(p1.Root); after >= before {
			t.Errorf("%s: optimized plan has %d operators, raw %d — no reduction:\n%s",
				name, after, before, algebra.Explain(p1.Root))
		}
	}
}

func TestPlanKeepsRawRoot(t *testing.T) {
	m, err := parser.Parse(`count(doc("shop.xml")//item)`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := algebra.CompilePlan(m, core.ModeAuto, false, opt.Optimize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Raw == nil || p.Raw == p.Root {
		t.Fatalf("optimizer should preserve the raw root separately (raw=%p root=%p)", p.Raw, p.Root)
	}
}

func TestMuSitesRemapped(t *testing.T) {
	m, err := parser.Parse(`count(with $x seeded by doc("hospital.xml")/hospital/patient[diagnosis = "hd"]
		recurse $x/parents/patient[diagnosis = "hd"])`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := algebra.CompilePlan(m, core.ModeAuto, false, opt.Optimize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Mus) != 1 {
		t.Fatalf("want one µ site, got %d", len(p.Mus))
	}
	found := false
	seen := map[*algebra.Node]bool{}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n == p.Mus[0].Mu {
			found = true
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p.Root)
	if !found {
		t.Fatal("µ site not re-pointed at the optimized DAG")
	}
	if p.Mus[0].Mu.RecBase == nil {
		t.Fatal("optimized µ lost its recursion-base pointer")
	}
}

// ---- rule unit tests over hand-built plans ------------------------------

func lit(cols []string, rows [][]xdm.Item) *algebra.Node { return algebra.NewLit(cols, rows) }

func intRow(vals ...int64) []xdm.Item {
	row := make([]xdm.Item, len(vals))
	for i, v := range vals {
		row[i] = xdm.NewInteger(v)
	}
	return row
}

func optimizeRoot(root *algebra.Node) *algebra.Plan {
	p := &algebra.Plan{Root: root, Raw: root}
	opt.Optimize(p)
	return p
}

func TestRuleDeadColumnPruning(t *testing.T) {
	// π(iter) over rowtag ∘ attach: both producers are dead and vanish.
	base := lit([]string{"iter", "pos"}, [][]xdm.Item{intRow(1, 1), intRow(2, 1)})
	at := &algebra.Node{Op: algebra.OpAttach, Kids: []*algebra.Node{base}, Col: "flag", Val: xdm.NewBoolean(true)}
	rt := &algebra.Node{Op: algebra.OpRowTag, Kids: []*algebra.Node{at}, Col: "tag"}
	root := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{rt},
		Proj: []algebra.ProjPair{{Out: "iter", In: "iter"}}}
	p := optimizeRoot(root)
	ops := algebra.Operators(p.Root)
	for _, gone := range []string{"attach[flag=true]", "rowtag[tag]"} {
		if ops[gone] != 0 {
			t.Errorf("dead producer %s survived:\n%s", gone, algebra.Explain(p.Root))
		}
	}
	tbl, err := algebra.Eval(p.Root, &algebra.ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("pruned plan lost rows: %d", tbl.Len())
	}
}

func TestRuleProjectCollapse(t *testing.T) {
	base := lit([]string{"a", "b"}, [][]xdm.Item{intRow(1, 2)})
	p1 := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{base},
		Proj: []algebra.ProjPair{{Out: "x", In: "a"}, {Out: "y", In: "b"}}}
	p2 := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{p1},
		Proj: []algebra.ProjPair{{Out: "z", In: "x"}, {Out: "y", In: "y"}}}
	p := optimizeRoot(p2)
	if got := opCount(p.Root); got != 2 {
		t.Errorf("π∘π should collapse to one projection over the literal, got %d ops:\n%s",
			got, algebra.Explain(p.Root))
	}
	tbl, err := algebra.Eval(p.Root, &algebra.ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.At(0, tbl.Col("z")).Int(); got != 1 {
		t.Errorf("composed projection read wrong column: z=%d", got)
	}
}

func TestRuleDistinctEliminationOverKeyedInput(t *testing.T) {
	base := lit([]string{"iter"}, [][]xdm.Item{intRow(1), intRow(2)})
	rt := &algebra.Node{Op: algebra.OpRowTag, Kids: []*algebra.Node{base}, Col: "tag"}
	d := &algebra.Node{Op: algebra.OpDistinct, Kids: []*algebra.Node{rt}}
	root := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{d},
		Proj: []algebra.ProjPair{{Out: "iter", In: "iter"}, {Out: "tag", In: "tag"}}}
	p := optimizeRoot(root)
	if ops := algebra.Operators(p.Root); ops["distinct"] != 0 {
		t.Errorf("δ over row-tagged (keyed) input survived:\n%s", algebra.Explain(p.Root))
	}
}

func TestRuleDistinctKeptOverDuplicates(t *testing.T) {
	base := lit([]string{"iter"}, [][]xdm.Item{intRow(1), intRow(1)})
	d := &algebra.Node{Op: algebra.OpDistinct, Kids: []*algebra.Node{base}}
	p := optimizeRoot(d)
	if ops := algebra.Operators(p.Root); ops["distinct"] != 1 {
		t.Errorf("δ over a duplicate-carrying literal must stay:\n%s", algebra.Explain(p.Root))
	}
	tbl, err := algebra.Eval(p.Root, &algebra.ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("distinct result rows = %d, want 1", tbl.Len())
	}
}

func TestRuleJoinKeptWhenRightUnkeyed(t *testing.T) {
	l := lit([]string{"iter"}, [][]xdm.Item{intRow(1)})
	r := lit([]string{"riter"}, [][]xdm.Item{intRow(1), intRow(1)})
	j := &algebra.Node{Op: algebra.OpJoin, Kids: []*algebra.Node{l, r},
		Preds: []algebra.JoinPred{{L: "iter", R: "riter", Cmp: algebra.NumEq}}}
	root := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{j},
		Proj: []algebra.ProjPair{{Out: "iter", In: "iter"}}}
	p := optimizeRoot(root)
	if ops := algebra.Operators(p.Root); ops["join[iter=riter]"] != 1 {
		t.Errorf("unkeyed join must not reduce (multiplicity changes):\n%s", algebra.Explain(p.Root))
	}
	tbl, err := algebra.Eval(p.Root, &algebra.ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("join result rows = %d, want 2", tbl.Len())
	}
}

func TestRuleJoinToSemijoinUnderDistinct(t *testing.T) {
	// δ(π_left(join)) converts even without a key on the right.
	l := lit([]string{"iter"}, [][]xdm.Item{intRow(1), intRow(2)})
	r := lit([]string{"riter"}, [][]xdm.Item{intRow(1), intRow(1)})
	j := &algebra.Node{Op: algebra.OpJoin, Kids: []*algebra.Node{l, r},
		Preds: []algebra.JoinPred{{L: "iter", R: "riter", Cmp: algebra.NumEq}}}
	pr := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{j},
		Proj: []algebra.ProjPair{{Out: "iter", In: "iter"}}}
	d := &algebra.Node{Op: algebra.OpDistinct, Kids: []*algebra.Node{pr}}
	p := optimizeRoot(d)
	if ops := algebra.Operators(p.Root); ops["semijoin[iter=riter]"] != 1 {
		t.Errorf("δ∘π context should reduce the join:\n%s", algebra.Explain(p.Root))
	}
	tbl, err := algebra.Eval(p.Root, &algebra.ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("result rows = %d, want 1", tbl.Len())
	}
}

func TestHashConsingMergesEqualSubtrees(t *testing.T) {
	mk := func() *algebra.Node {
		base := lit([]string{"iter", "item"}, [][]xdm.Item{intRow(1, 5)})
		return &algebra.Node{Op: algebra.OpNumOp, Kids: []*algebra.Node{base},
			Col: "r", Num: algebra.NumAdd, NumArgs: []string{"iter", "item"}}
	}
	a, b := mk(), mk()
	pa := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{a},
		Proj: []algebra.ProjPair{{Out: "iter", In: "iter"}, {Out: "r", In: "r"}}}
	pb := &algebra.Node{Op: algebra.OpProject, Kids: []*algebra.Node{b},
		Proj: []algebra.ProjPair{{Out: "iter", In: "iter"}, {Out: "r", In: "r"}}}
	root := &algebra.Node{Op: algebra.OpUnion, Kids: []*algebra.Node{pa, pb}}
	p := optimizeRoot(root)
	if p.Root.Kids[0] != p.Root.Kids[1] {
		t.Errorf("structurally identical branches should share one node:\n%s",
			algebra.Explain(p.Root))
	}
}

func TestHashConsingKeepsConstructorsApart(t *testing.T) {
	// (<a/>, <a/>) must stay two constructors: each mints its own node.
	raw, optd, _, _, _, p1 := evalBoth(t, `count((<a/>, <a/>))`, algebra.ModeAuto)
	if raw != optd || raw != "2" {
		t.Fatalf("constructor count diverged: -O0 %q -O1 %q", raw, optd)
	}
	ctors := 0
	for op, c := range algebra.Operators(p1.Root) {
		if strings.HasPrefix(op, "ctor[") {
			ctors += c
		}
	}
	if ctors != 2 {
		t.Errorf("constructors merged by consing: %d nodes", ctors)
	}
}

func TestAnnotations(t *testing.T) {
	m, err := parser.Parse(`count(with $x seeded by doc("hospital.xml")/hospital/patient[diagnosis = "hd"]
		recurse $x/parents/patient[diagnosis = "hd"])`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.CompileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	out := algebra.ExplainWith(plan.Root, opt.Annotate(plan.Root))
	for _, want := range []string{"rec", "key=", "live=("} {
		if !strings.Contains(out, want) {
			t.Errorf("annotated explain misses %q:\n%s", want, out)
		}
	}
}
