package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/xdm"
)

// rowNumOracle ranks rows the way ϱ did before the run scan: flatten the
// sort columns to items, stable-sort the row indices through
// xdm.CompareOrder, and count each row within its partition in sorted
// order. It is the reference the executor's ranks are checked against.
func rowNumOracle(in *Table, n *Node) []xdm.Item {
	svals := make([][]xdm.Item, len(n.SortCols))
	for i, c := range n.SortCols {
		svals[i] = materialize(in.cols[in.Col(c)])
	}
	order := make([]int, in.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		for _, s := range svals {
			if c := xdm.CompareOrder(s[order[a]], s[order[b]]); c != 0 {
				if n.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	parts := identityKeys(in.colsNamed(n.GroupCols))[0]
	counts := map[[2]uint64]int64{}
	rvals := make([]xdm.Item, in.n)
	for _, ri := range order {
		counts[parts.at(ri)]++
		rvals[ri] = xdm.NewInteger(counts[parts.at(ri)])
	}
	return rvals
}

// Column kinds of the randomized ϱ inputs: node-only columns pack into
// identity words, atomic and mixed columns stay generic items.
const (
	kindPacked = iota
	kindAtomic
	kindMixed
)

// Partition layouts: one contiguous run per partition, the first partition
// split into two runs around the others, or every partition in rank order
// but interleaved with the others. A shuffled table is in no order at all.
const (
	layoutRuns = iota
	layoutSplit
	layoutInterleaved
	layoutShuffled
)

// rankValue draws a value of the given kind from small pools, so ties are
// common. Nodes come from two documents, whose stamps order them.
func rankValue(rng *rand.Rand, kind int, docs []*xdm.Document) xdm.Item {
	if kind == kindPacked || kind == kindMixed && rng.Intn(2) == 0 {
		d := docs[rng.Intn(len(docs))]
		return xdm.NewNode(xdm.NodeRef{D: d, Pre: int32(rng.Intn(min(d.Len(), 6)))})
	}
	switch rng.Intn(3) {
	case 0:
		return xdm.NewInteger(int64(rng.Intn(4)))
	case 1:
		return xdm.NewDouble(float64(rng.Intn(4)) + 0.5)
	}
	return xdm.NewString(fmt.Sprintf("s%d", rng.Intn(3)))
}

// rankCase is one randomized ϱ input. mustSort is set when the layout puts
// some partition in two or more runs, so the scan has to decline.
type rankCase struct {
	node     *Node
	layout   int
	mustSort bool
}

// randRankCase builds a ϱ over a random table of the given row count with
// nGroup group columns and nSort sort columns, laid out per layout.
func randRankCase(rng *rand.Rand, docs []*xdm.Document, rows, nGroup, nSort, layout int, desc bool) rankCase {
	var cols, gcols, scols []string
	kinds := map[string]int{}
	for i := 0; i < nGroup+nSort; i++ {
		c := fmt.Sprintf("s%d", i-nGroup)
		if i < nGroup {
			c = fmt.Sprintf("g%d", i)
			gcols = append(gcols, c)
		} else {
			scols = append(scols, c)
		}
		cols, kinds[c] = append(cols, c), rng.Intn(3)
	}
	// Distinct partition keys; every row joins a random partition, and each
	// partition's rows are then sorted on the sort columns.
	nParts := 1
	if nGroup > 0 {
		nParts += rng.Intn(4)
	}
	var keys [][]xdm.Item
	seen := map[string]bool{}
	for len(keys) < nParts {
		g := make([]xdm.Item, nGroup)
		sig := ""
		for i, c := range gcols {
			g[i] = rankValue(rng, kinds[c], docs)
			sig += xdm.KeyOf(g[i]).String() + "|"
		}
		if !seen[sig] {
			seen[sig] = true
			keys = append(keys, g)
		}
	}
	parts := make([][][]xdm.Item, nParts)
	for r := 0; r < rows; r++ {
		p := rng.Intn(nParts)
		row := append([]xdm.Item{}, keys[p]...)
		for _, c := range scols {
			row = append(row, rankValue(rng, kinds[c], docs))
		}
		parts[p] = append(parts[p], row)
	}
	parts = slices.DeleteFunc(parts, func(p [][]xdm.Item) bool { return len(p) == 0 })
	longest := 0
	for _, p := range parts {
		slices.SortStableFunc(p, func(a, b []xdm.Item) int {
			for c := nGroup; c < len(a); c++ {
				if o := xdm.CompareOrder(a[c], b[c]); o != 0 {
					if desc {
						return -o
					}
					return o
				}
			}
			return 0
		})
		longest = max(longest, len(p))
	}
	var table [][]xdm.Item
	mustSort := false
	switch layout {
	case layoutRuns, layoutShuffled:
		table = slices.Concat(parts...)
		if layout == layoutShuffled {
			rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
		}
	case layoutSplit:
		if len(parts) == 0 {
			break
		}
		half := (len(parts[0]) + 1) / 2
		table = append(table, parts[0][:half]...)
		table = append(table, slices.Concat(parts[1:]...)...)
		table = append(table, parts[0][half:]...)
		mustSort = len(parts) > 1 && len(parts[0]) > 1
	case layoutInterleaved:
		for i := 0; i < longest; i++ {
			for _, p := range parts {
				if i < len(p) {
					table = append(table, p[i])
				}
			}
		}
		mustSort = len(parts) > 1 && longest > 1
	}
	n := &Node{Op: OpRowNum, Col: "rank", GroupCols: gcols, SortCols: scols, Desc: desc,
		Kids: []*Node{NewLit(cols, table)}}
	return rankCase{node: n, layout: layout, mustSort: mustSort}
}

// TestRowNumMatchesSortOracle checks ϱ's ranks against the sort-then-count
// oracle on randomized tables: packed, atomic and mixed key columns,
// ascending and descending, ties, one or two sort columns, zero to two
// group columns, every partition layout, and empty and one-row tables.
// Both of ϱ's paths must run: partitions that arrive as runs in rank order
// take the scan, partitions split over several runs take the sort.
func TestRowNumMatchesSortOracle(t *testing.T) {
	var scans, sorts int
	for trial := 0; trial < 600; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		docs := []*xdm.Document{randDoc(rng, 10, "a.xml"), randDoc(rng, 10, "b.xml")}
		rows := []int{0, 1, 2 + rng.Intn(40)}[trial%3]
		c := randRankCase(rng, docs, rows, rng.Intn(3), 1+rng.Intn(2), rng.Intn(4), rng.Intn(2) == 0)
		what := fmt.Sprintf("trial %d (%d rows, group %v, sort %v, desc %v, layout %d)",
			trial, rows, c.node.GroupCols, c.node.SortCols, c.node.Desc, c.layout)

		ctx := &ExecContext{Prof: obs.NewPlanProfile()}
		got, err := Eval(c.node, ctx)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want := rowNumOracle(ctx.memo[c.node.Kids[0]], c.node)
		rank := got.ColAt(got.Col("rank"))
		for r := range want {
			if g, w := rank.Item(r).Int(), want[r].Int(); g != w {
				t.Fatalf("%s: row %d ranked %d, oracle %d", what, r, g, w)
			}
		}
		st, _ := ctx.Prof.Stats(c.node)
		switch st.Sorted {
		case 0:
			scans++
		case int64(rows):
			sorts++
		default:
			t.Fatalf("%s: sorted=%d, want 0 or all %d rows", what, st.Sorted, rows)
		}
		if c.layout == layoutRuns && st.Sorted != 0 {
			t.Fatalf("%s: partitions arrive as runs in rank order, yet ϱ sorted", what)
		}
		if c.mustSort && st.Sorted == 0 {
			t.Fatalf("%s: a partition spans several runs, yet ϱ took the scan", what)
		}
	}
	if scans == 0 || sorts == 0 {
		t.Fatalf("ϱ took the scan %d times and the sort %d times; both paths must run", scans, sorts)
	}
}
