package opt_test

import (
	"strings"
	"testing"

	ifpxq "repro"
	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xq/parser"
)

// TestTemplateRowNumsNeverSort: the step template's ϱ (Figure 7(b)) numbers
// each context node's step results, which xdm.Step emits in axis order. So
// on the four paper queries, at -O0 and -O1 and in every fixpoint mode,
// every template ϱ takes the run scan and ANALYZE reports no sorted rows.
func TestTemplateRowNumsNeverSort(t *testing.T) {
	for _, g := range analyzeGoldens {
		docs := ifpxq.DocsFromStrings(map[string]string{g.uri: g.xml()})
		for level, optimize := range []func(*algebra.Plan){nil, opt.Optimize} {
			for _, mode := range []core.Mode{core.ModeAuto, core.ModeNaive} {
				m, err := parser.Parse(g.query)
				if err != nil {
					t.Fatal(err)
				}
				prof := obs.NewPlanProfile()
				plan, err := algebra.CompilePlan(m, mode, false, optimize, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := algebra.NewEngineFromPlan(plan, algebra.Options{Docs: docs, Prof: prof}).Eval(); err != nil {
					t.Fatalf("%s -O%d mode %d: %v", g.name, level, mode, err)
				}
				ran := 0
				for _, n := range planNodes(plan.Root) {
					st, ok := prof.Stats(n)
					if n.Op != algebra.OpRowNum || !n.Template || !ok {
						continue
					}
					ran++
					if st.Sorted != 0 {
						t.Errorf("%s -O%d mode %d: template %s sorted %d rows", g.name, level, mode, algebra.Explain(n), st.Sorted)
					}
				}
				// -O1 prunes the template ϱ of most bodies; dialogs keeps two.
				if ran == 0 && (level == 0 || g.name == "dialogs") {
					t.Errorf("%s -O%d mode %d: no template ϱ executed", g.name, level, mode)
				}
			}
		}
	}
}

// planNodes lists every node of a plan DAG once.
func planNodes(root *algebra.Node) []*algebra.Node {
	seen := map[*algebra.Node]bool{}
	var out []*algebra.Node
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return out
}

// TestRankFallbackAtBothLevels: these queries hand some ϱ rows out of rank
// order — results of reverse axes, or of several context nodes, before
// duplicate elimination restores document order — so ϱ must sort. The
// relational engine at -O0 and -O1 agrees with the interpreter, and ANALYZE
// shows the sort at both levels.
func TestRankFallbackAtBothLevels(t *testing.T) {
	docs := ifpxq.DocsFromStrings(map[string]string{"shop.xml": shopXML})
	for _, src := range []string{
		`(doc("shop.xml")/shop/item/following-sibling::item | doc("shop.xml")/shop/item/preceding-sibling::item[2])/name/string()`,
		`for $i in doc("shop.xml")/shop/item return ($i/following-sibling::item, $i/preceding-sibling::item)/name/string()`,
		`doc("shop.xml")/shop/item/name/ancestor-or-self::*/name()`,
		`doc("shop.xml")//name/ancestor::*/name()`,
	} {
		q := ifpxq.MustParse(src)
		want, err := q.Eval(ifpxq.Options{Engine: ifpxq.EngineInterpreter, Docs: docs})
		if err != nil {
			t.Fatalf("interp %s: %v", src, err)
		}
		for _, level := range []ifpxq.OptLevel{ifpxq.Opt0, ifpxq.Opt1} {
			rep, err := q.Analyze(ifpxq.Options{Engine: ifpxq.EngineRelational, Opt: level, Docs: docs})
			if err != nil {
				t.Fatalf("rel opt %d %s: %v", level, src, err)
			}
			if got := rep.Result.String(); got != want.String() {
				t.Errorf("rel opt %d %s = %q, interp %q", level, src, got, want.String())
			}
			if !strings.Contains(rep.Plan, "sorted=") {
				t.Errorf("rel opt %d %s: no ϱ sorted, so the query no longer reaches the fallback:\n%s", level, src, rep.Plan)
			}
		}
	}
}
