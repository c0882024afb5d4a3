package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
)

// Key column classes of the randomized join inputs. Each class decides
// which derivation joinKeys picks for a predicate, so every pairing of two
// classes is drawn.
const (
	classInt = iota
	classString
	classUntyped
	classNodes
	classDouble
	classMixed
	nClasses
)

// joinValueDoc holds elements whose string values overlap the atomic pools
// below, so packed node columns meet strings, untyped values and numbers.
const joinValueDoc = `<r><v>10</v><v> 10 </v><v>1e1</v><v>a</v><v>NaN</v><v>INF</v><v>3</v><v>9007199254740993</v></r>`

// joinValue draws one value of a class from small pools, so matches are
// common and every comparison edge — untyped casts, whitespace, NaN, −0,
// integers around 2⁵³ — comes up.
func joinValue(rng *rand.Rand, class int, doc *xdm.Document) xdm.Item {
	pick := func(s ...string) string { return s[rng.Intn(len(s))] }
	switch class {
	case classInt:
		ints := []int64{0, 3, 10, 1 << 53, 1<<53 + 1, 1<<53 - 1, 9007199254740993, -1}
		return xdm.NewInteger(ints[rng.Intn(len(ints))])
	case classString:
		return xdm.NewString(pick("10", " 10 ", "1e1", "a", "3", "NaN", ""))
	case classUntyped:
		return xdm.NewUntyped(pick("10", " 10 ", "1e1", "NaN", "INF", "a", "3", "9007199254740992"))
	case classNodes:
		return xdm.NewNode(xdm.NodeRef{D: doc, Pre: int32(2 + 2*rng.Intn(8))})
	case classDouble:
		doubles := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 10, 3, 3.5, 1 << 53}
		return xdm.NewDouble(doubles[rng.Intn(len(doubles))])
	}
	return joinValue(rng, rng.Intn(classMixed), doc)
}

// joinOracle is a nested loop over xdm.GeneralCompareItems: for each left
// row in order, every right row in order. Join returns (lid, rid) pairs,
// semijoin and antijoin the left ids.
func joinOracle(l, r [][]xdm.Item, preds []JoinPred, cols map[string]int, semi, anti bool) [][2]int64 {
	var out [][2]int64
	for _, lrow := range l {
		matched := false
		for _, rrow := range r {
			ok := true
			for _, p := range preds {
				holds, err := xdm.GeneralCompareItems(lrow[cols[p.L]], rrow[cols[p.R]], numToCompOp(p.Cmp))
				if ok = err == nil && holds; !ok {
					break
				}
			}
			if !ok {
				continue
			}
			matched = true
			if !semi {
				out = append(out, [2]int64{lrow[0].Int(), rrow[0].Int()})
			}
		}
		if semi && matched != anti {
			out = append(out, [2]int64{lrow[0].Int(), -1})
		}
	}
	return out
}

// TestJoinMatchesNestedLoopOracle runs join, semijoin and antijoin with one
// and two equality predicates, with and without a < theta predicate, over
// every pairing of key column classes, and checks the rows and their order
// against the nested-loop oracle.
func TestJoinMatchesNestedLoopOracle(t *testing.T) {
	doc, err := xmldoc.ParseString(joinValueDoc, "v.xml")
	if err != nil {
		t.Fatal(err)
	}
	lcols := []string{"lid", "a1", "a2", "lt"}
	rcols := []string{"rid", "b1", "b2", "rt"}
	cols := map[string]int{"a1": 1, "a2": 2, "lt": 3, "b1": 1, "b2": 2, "rt": 3}
	ops := []struct {
		op         OpKind
		semi, anti bool
	}{{OpJoin, false, false}, {OpSemiJoin, true, false}, {OpAntiJoin, true, true}}
	rng := rand.New(rand.NewSource(34))
	cases := 0
	for lc := 0; lc < nClasses; lc++ {
		for rc := 0; rc < nClasses; rc++ {
			for _, twoEq := range []bool{false, true} {
				for _, theta := range []bool{false, true} {
					for _, o := range ops {
						// The second predicate's classes are drawn at random.
						lc2, rc2 := rng.Intn(nClasses), rng.Intn(nClasses)
						table := func(class, class2 int) [][]xdm.Item {
							rows := make([][]xdm.Item, rng.Intn(14))
							for i := range rows {
								rows[i] = []xdm.Item{xdm.NewInteger(int64(i)), joinValue(rng, class, doc),
									joinValue(rng, class2, doc), joinValue(rng, classInt, doc)}
							}
							return rows
						}
						l, r := table(lc, lc2), table(rc, rc2)
						preds := []JoinPred{{L: "a1", R: "b1", Cmp: NumEq}}
						if twoEq {
							preds = append(preds, JoinPred{L: "a2", R: "b2", Cmp: NumEq})
						}
						if theta {
							preds = append(preds, JoinPred{L: "lt", R: "rt", Cmp: NumLt})
						}
						n := &Node{Op: o.op, Preds: preds, Kids: []*Node{NewLit(lcols, l), NewLit(rcols, r)}}
						what := fmt.Sprintf("%v classes %d/%d (second %d/%d) preds %v", o.op, lc, rc, lc2, rc2, preds)
						got, err := Eval(n, &ExecContext{})
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						want := joinOracle(l, r, preds, cols, o.semi, o.anti)
						if got.Len() != len(want) {
							t.Fatalf("%s: %d rows, oracle %d", what, got.Len(), len(want))
						}
						lid := got.ColAt(got.Col("lid"))
						for i, w := range want {
							g := [2]int64{lid.Item(i).Int(), -1}
							if !o.semi {
								g[1] = got.ColAt(got.Col("rid")).Item(i).Int()
							}
							if g != w {
								t.Fatalf("%s: row %d is (lid, rid) %v, oracle %v", what, i, g, w)
							}
						}
						cases++
					}
				}
			}
		}
	}
	if cases != nClasses*nClasses*12 {
		t.Fatalf("ran %d cases", cases)
	}
}
