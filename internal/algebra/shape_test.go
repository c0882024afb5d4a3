package algebra_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bench"
	"repro/internal/xq/parser"
)

// rawOperators compiles src with no optimizer and counts its operators by
// their EXPLAIN label.
func rawOperators(t *testing.T, src string) map[string]int {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := algebra.CompilePlan(m, algebra.ModeAuto, false, nil, nil)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return algebra.Operators(p.Root)
}

// TestComparisonShapes pins what the compiler emits for a comparison
// condition: `path = "s"` is a step that filters on s itself, with no
// attached literal and no join, and every other comparison is a ⋉ on the
// iteration and the item predicate.
func TestComparisonShapes(t *testing.T) {
	for _, tc := range []struct{ query, step string }{
		{bench.HospitalQuery, `step[child::diagnosis eq="hd"]`},
		{`doc("shop.xml")//item[@cat = "a"]`, `step[attribute::cat eq="a"]`},
		{`for $i in doc("shop.xml")//item where $i/@price = "10" return $i`, `step[attribute::price eq="10"]`},
		{`doc("shop.xml")//item["a" eq @cat]`, `step[attribute::cat eq="a"]`},
	} {
		ops := rawOperators(t, tc.query)
		if ops[tc.step] == 0 {
			t.Errorf("%s: no %s in the raw plan: %s", tc.query, tc.step, algebra.OperatorSummary(ops))
		}
		for label := range ops {
			if strings.HasPrefix(label, `attach[item="`) || strings.HasPrefix(label, "join[iter=riter") ||
				strings.HasPrefix(label, "semijoin[iter=riter") {
				t.Errorf("%s: raw plan keeps %s", tc.query, label)
			}
		}
	}
	for _, tc := range []struct{ query, semijoin string }{
		{`for $i in doc("shop.xml")//item where $i/@price < 20 return $i`, "semijoin[iter=riter,item<ritem]"},
		{`doc("shop.xml")//item[@price = 10]`, "semijoin[iter=riter,item=ritem]"},
		{`doc("shop.xml")//item[name[1] = "fig"]`, "semijoin[iter=riter,item=ritem]"},
		{`for $i in (1, 2) where doc("shop.xml")/shop/item/@cat = "c" return $i`, "semijoin[iter=riter,item=ritem]"},
	} {
		ops := rawOperators(t, tc.query)
		if ops[tc.semijoin] == 0 {
			t.Errorf("%s: no %s in the raw plan: %s", tc.query, tc.semijoin, algebra.OperatorSummary(ops))
		}
		for label := range ops {
			if strings.HasPrefix(label, "join[iter=riter") || strings.Contains(label, " eq=") {
				t.Errorf("%s: raw plan holds %s", tc.query, label)
			}
		}
	}
}
