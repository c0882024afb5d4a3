package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/xdm"
)

// These property tests pin the columnar Table to the row-major layout it
// replaced (PR 1's oracle pattern): a rowOracle carries the same data as
// [][]xdm.Item and every column primitive — build, gather, concat, repeat,
// distinct, bag difference — must observe exactly the rows the oracle
// computes, byte for byte, across packed, generic, mixed, wide, and empty
// shapes.

// randDoc builds a random element tree with n nodes.
func randDoc(rng *rand.Rand, n int, uri string) *xdm.Document {
	b := xdm.NewBuilder(uri)
	open := 0
	b.StartElement("r")
	open++
	for i := 0; i < n; i++ {
		switch {
		case open > 1 && rng.Intn(3) == 0:
			b.EndElement()
			open--
		default:
			b.StartElement(fmt.Sprintf("e%d", rng.Intn(5)))
			open++
		}
	}
	for ; open > 0; open-- {
		b.EndElement()
	}
	return b.Done()
}

func itemsIdentical(a, b xdm.Item) bool { return xdm.KeyOf(a) == xdm.KeyOf(b) }

// rowOracle is the old row-major table: the reference the columnar
// implementation is checked against.
type rowOracle struct {
	cols []string
	rows [][]xdm.Item
}

func (o *rowOracle) gather(idx []int32) *rowOracle {
	out := &rowOracle{cols: o.cols}
	for _, i := range idx {
		out.rows = append(out.rows, o.rows[i])
	}
	return out
}

func requireTableMatchesOracle(t *testing.T, what string, got *Table, want *rowOracle) {
	t.Helper()
	if got.Len() != len(want.rows) {
		t.Fatalf("%s: %d rows, oracle has %d", what, got.Len(), len(want.rows))
	}
	for r := 0; r < got.Len(); r++ {
		row := got.Row(r)
		if len(row) != len(want.cols) {
			t.Fatalf("%s: row %d width %d, oracle %d", what, r, len(row), len(want.cols))
		}
		for c := range row {
			if !itemsIdentical(row[c], want.rows[r][c]) {
				t.Fatalf("%s: row %d col %d: %v vs oracle %v", what, r, c, row[c], want.rows[r][c])
			}
			if !itemsIdentical(got.At(r, c), want.rows[r][c]) {
				t.Fatalf("%s: At(%d,%d): %v vs oracle %v", what, r, c, got.At(r, c), want.rows[r][c])
			}
		}
	}
}

// randItem draws one item; kind 0 biases toward nodes so columns flip
// between packed and generic representations across trials.
func randItem(rng *rand.Rand, docs []*xdm.Document, nodeBias int) xdm.Item {
	if rng.Intn(10) < nodeBias {
		d := docs[rng.Intn(len(docs))]
		return xdm.NewNode(xdm.NodeRef{D: d, Pre: int32(rng.Intn(d.Len()))})
	}
	switch rng.Intn(4) {
	case 0:
		return xdm.NewInteger(int64(rng.Intn(7)))
	case 1:
		return xdm.NewString(fmt.Sprintf("s%d", rng.Intn(7)))
	case 2:
		return xdm.NewDouble(float64(rng.Intn(5)) / 2)
	default:
		return xdm.NewBoolean(rng.Intn(2) == 0)
	}
}

// randTable draws a random table and its oracle twin: per-column node
// bias 0 (pure generic), 10 (pure packed → node column), or mixed, over
// widths from 1 (packed fast paths) to 6 (rows wide enough to fold) and
// row counts including 0 (empty columns).
func randTable(rng *rand.Rand, docs []*xdm.Document, width, rows int) (*Table, *rowOracle) {
	classes := make([]int, width)
	for c := range classes {
		classes[c] = []int{0, 10, 5}[rng.Intn(3)]
	}
	return classTable(rng, docs, classes, rows)
}

// Column classes beyond randItem's node biases (0 to 10): columns holding
// only integers (some beyond 2⁵³) or only strings.
const (
	colInts    = -1
	colStrings = -2
)

// classTable draws a table whose column c holds values of classes[c]: a
// node bias of randItem, colInts or colStrings.
func classTable(rng *rand.Rand, docs []*xdm.Document, classes []int, rows int) (*Table, *rowOracle) {
	cols := make([]string, len(classes))
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	data := make([][]xdm.Item, rows)
	for r := range data {
		row := make([]xdm.Item, len(classes))
		for c, class := range classes {
			switch class {
			case colInts:
				row[c] = xdm.NewInteger(int64(rng.Intn(7)) + []int64{0, 1 << 53}[rng.Intn(2)])
			case colStrings:
				row[c] = xdm.NewString(fmt.Sprintf("s%d", rng.Intn(7)))
			default:
				row[c] = randItem(rng, docs, class)
			}
		}
		data[r] = row
	}
	return NewTable(cols, data), &rowOracle{cols: cols, rows: data}
}

func TestTableMatchesRowOracle(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		docs := []*xdm.Document{
			randDoc(rng, 20+rng.Intn(40), "a.xml"),
			randDoc(rng, 20+rng.Intn(40), "b.xml"),
			randDoc(rng, 10+rng.Intn(20), "c.xml"),
		}
		width := 1 + rng.Intn(6)
		rows := rng.Intn(60) // includes 0: the empty-column edge
		tab, oracle := randTable(rng, docs, width, rows)
		requireTableMatchesOracle(t, "build", tab, oracle)

		// Random gathers (dup indices, empty, full) match row selection.
		for g := 0; g < 3; g++ {
			n := rng.Intn(rows + 1)
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(rng.Intn(rows))
			}
			requireTableMatchesOracle(t, fmt.Sprintf("gather %v", idx), tab.gather(idx), oracle.gather(idx))
		}

		// Per-column invariants: packed columns hold exactly the xdm.NodeWord
		// identities of their items, and readers agree with Item.
		for c := 0; c < width; c++ {
			col := tab.ColAt(c)
			r := col.reader()
			for i := 0; i < col.Len(); i++ {
				if !itemsIdentical(col.Item(i), oracle.rows[i][c]) {
					t.Fatalf("trial %d: col %d item %d mismatch", trial, c, i)
				}
				if !itemsIdentical(r.item(i), oracle.rows[i][c]) {
					t.Fatalf("trial %d: col %d reader item %d mismatch", trial, c, i)
				}
				if col.IsNodeAt(i) != oracle.rows[i][c].IsNode() {
					t.Fatalf("trial %d: col %d IsNodeAt(%d) mismatch", trial, c, i)
				}
				if col.IsPacked() && col.Packed()[i] != xdm.NodeWord(oracle.rows[i][c].Node()) {
					t.Fatalf("trial %d: col %d packed identity %d mismatch", trial, c, i)
				}
			}
		}
	}
}

func TestConcatColumnsMatchesOracle(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		docs := []*xdm.Document{randDoc(rng, 30, "a.xml"), randDoc(rng, 30, "b.xml")}
		var chunks []*Column
		var want []xdm.Item
		for n := 1 + rng.Intn(5); n > 0; n-- {
			// Mix empty, packed, and generic chunks (some sharing a dict
			// via gather, some with distinct dicts).
			items := make([]xdm.Item, rng.Intn(10))
			bias := []int{0, 10, 5}[rng.Intn(3)]
			for i := range items {
				items[i] = randItem(rng, docs, bias)
			}
			chunks = append(chunks, columnFromItems(items))
			want = append(want, items...)
		}
		got := concatColumns(chunks)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: concat length %d, want %d", trial, got.Len(), len(want))
		}
		for i := range want {
			if !itemsIdentical(got.Item(i), want[i]) {
				t.Fatalf("trial %d: concat item %d: %v want %v", trial, i, got.Item(i), want[i])
			}
		}
	}
}

// TestBuilderDegradesPastDocBound: a node column spanning more documents
// than maxPackedDocs must fall back to generic storage without losing or
// reordering a single value (the constructor-output shape).
func TestBuilderDegradesPastDocBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var want []xdm.Item
	b := newColBuilder(0)
	for i := 0; i < maxPackedDocs+20; i++ {
		d := randDoc(rng, 3, fmt.Sprintf("d%d.xml", i))
		it := xdm.NewNode(d.Root())
		want = append(want, it)
		b.append(it)
	}
	col := b.finish()
	if col.IsPacked() {
		t.Fatalf("column packed across %d documents (bound %d)", len(want), maxPackedDocs)
	}
	for i := range want {
		if !itemsIdentical(col.Item(i), want[i]) {
			t.Fatalf("degraded column lost value %d", i)
		}
	}
}

// TestRepeatAndIntRangeColumns: the special-shape constructors agree with
// their obvious row-wise definitions.
func TestRepeatAndIntRangeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	doc := randDoc(rng, 10, "a.xml")
	for _, it := range []xdm.Item{xdm.NewInteger(42), xdm.NewNode(doc.Root()), xdm.NewString("k")} {
		for _, n := range []int{0, 1, 7} {
			col := repeatColumn(it, n)
			if col.Len() != n {
				t.Fatalf("repeat len %d, want %d", col.Len(), n)
			}
			for i := 0; i < n; i++ {
				if !itemsIdentical(col.Item(i), it) {
					t.Fatalf("repeat value %d diverged", i)
				}
			}
		}
	}
	col := intRangeColumn(5)
	for i := 0; i < 5; i++ {
		if col.Item(i).Int() != int64(i+1) {
			t.Fatalf("intRange[%d] = %v", i, col.Item(i))
		}
	}
}

// TestDistinctAndDiffMatchRowOracle runs δ and \ through the executor on
// random literal tables — wide and narrow, node-heavy and atomic — and
// checks the selected rows against a straightforward row-major oracle
// using the exact-identity key.
func TestDistinctAndDiffMatchRowOracle(t *testing.T) {
	rowKey := func(row []xdm.Item) string {
		k := ""
		for _, it := range row {
			k += xdm.KeyOf(it).String() + "\x01"
		}
		return k
	}
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(6000 + trial)))
		docs := []*xdm.Document{randDoc(rng, 25, "a.xml")}
		// Each column of ∖'s right input takes the left's class or, in some
		// trials, one of its own, so the two inputs may disagree in class.
		width := 1 + rng.Intn(5)
		pool := []int{0, 10, 5, colInts, colStrings}
		lclasses, rclasses := make([]int, width), make([]int, width)
		for c := range lclasses {
			lclasses[c], rclasses[c] = pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if trial%2 == 0 {
				rclasses[c] = lclasses[c]
			}
		}
		ltab, loracle := classTable(rng, docs, lclasses, rng.Intn(40))
		_, roracle := classTable(rng, docs, rclasses, rng.Intn(40))
		// Copies of left rows give ∖ something to cancel at every width.
		for i := rng.Intn(len(loracle.rows) + 1); i > 0; i-- {
			roracle.rows = append(roracle.rows, loracle.rows[rng.Intn(len(loracle.rows))])
		}
		rtab := NewTable(roracle.cols, roracle.rows)
		// Align the right oracle's schema with the left's (same names).
		rtab.Cols = ltab.Cols
		roracle.cols = loracle.cols

		got := distinctTable(ltab)
		seen := map[string]bool{}
		want := &rowOracle{cols: loracle.cols}
		for _, row := range loracle.rows {
			if k := rowKey(row); !seen[k] {
				seen[k] = true
				want.rows = append(want.rows, row)
			}
		}
		requireTableMatchesOracle(t, "distinct", got, want)

		counts := map[string]int{}
		for _, row := range roracle.rows {
			counts[rowKey(row)]++
		}
		wantDiff := &rowOracle{cols: loracle.cols}
		for _, row := range loracle.rows {
			if k := rowKey(row); counts[k] > 0 {
				counts[k]--
				continue
			}
			wantDiff.rows = append(wantDiff.rows, row)
		}
		requireTableMatchesOracle(t, "diff", diffTable(ltab, rtab), wantDiff)
	}
}

// TestRowSetPackedMatchesGeneric: identity keys draw the same distinct-row
// boundaries whichever derivation a column group takes — packed node words,
// int64 words, or ids interned from xdm.KeyOf — across mixed item kinds,
// including integers beyond 2⁵³, which stay distinct, and rows wide enough
// to fold. Within one group, a packed column and its generic twin key every
// row alike.
func TestRowSetPackedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	doc := randDoc(rng, 30, "a.xml")
	node := func() xdm.Item { return xdm.NewNode(xdm.NodeRef{D: doc, Pre: int32(rng.Intn(doc.Len()))}) }
	integer := func() xdm.Item {
		if rng.Intn(2) == 0 {
			return xdm.NewInteger(int64(rng.Intn(5)))
		}
		return xdm.NewInteger(int64(1)<<53 + int64(rng.Intn(3)))
	}
	mixed := func() xdm.Item {
		switch rng.Intn(4) {
		case 0:
			return node()
		case 1:
			return integer()
		case 2:
			return xdm.NewString(fmt.Sprintf("s%d", rng.Intn(5)))
		default:
			return xdm.NewBoolean(rng.Intn(2) == 0)
		}
	}
	for _, width := range []int{1, 2, 3, 4} {
		// Column 0 holds nodes only, so it packs; column 1 integers only;
		// the other columns stay mixed.
		gen := []func() xdm.Item{node, integer, mixed, mixed}
		rows := make([][]xdm.Item, 500)
		for i := range rows {
			rows[i] = make([]xdm.Item, width)
			for c := range rows[i] {
				rows[i][c] = gen[c]()
			}
		}
		tab := NewTable(make([]string, width), rows)
		if !tab.ColAt(0).IsPacked() {
			t.Fatal("node column did not pack")
		}
		generic := make([]*Column, width)
		strs := make([]*Column, width)
		for c := range generic {
			generic[c] = genericColumn(materialize(tab.ColAt(c)))
			strs[c] = genericColumn([]xdm.Item{xdm.NewString("x")})
		}
		typed := identityKeys(tab.cols)[0]
		// A string column in every group forces every group to intern.
		joint := identityKeys(tab.cols, generic, strs)
		seen := map[string]bool{}
		seenTyped, seenJoint := map[[2]uint64]bool{}, map[[2]uint64]bool{}
		for i, row := range rows {
			key := ""
			for _, it := range row {
				key += xdm.KeyOf(it).String() + "\x01"
			}
			want := !seen[key]
			seen[key] = true
			gotT, gotJ := !seenTyped[typed.at(i)], !seenJoint[joint[0].at(i)]
			seenTyped[typed.at(i)], seenJoint[joint[0].at(i)] = true, true
			if gotT != want || gotJ != want {
				t.Fatalf("width %d row %d: new = %v typed, %v interned, want %v", width, i, gotT, gotJ, want)
			}
			if joint[0].at(i) != joint[1].at(i) {
				t.Fatalf("width %d row %d: packed and generic twins key apart", width, i)
			}
		}
	}
}

// TestGroupCountComposite: a grouped count keys on every group column
// (a fused step's [last()] counts per iteration and context node), emits
// one row per group in first-appearance order, and counts each group's
// rows.
func TestGroupCountComposite(t *testing.T) {
	var rows [][]xdm.Item
	for _, r := range [][3]int64{{1, 1, 7}, {1, 1, 8}, {1, 2, 7}, {2, 1, 7}, {1, 2, 9}, {1, 1, 9}} {
		rows = append(rows, []xdm.Item{xdm.NewInteger(r[0]), xdm.NewInteger(r[1]), xdm.NewInteger(r[2])})
	}
	n := &Node{Op: OpGroupCount, Kids: []*Node{NewLit([]string{"iter", "src", "item"}, rows)},
		GroupCols: []string{"iter", "src"}, Col: "sz"}
	got, err := Eval(n, &ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]int64{{1, 1, 3}, {1, 2, 2}, {2, 1, 1}}
	if got.Len() != len(want) {
		t.Fatalf("%d groups, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		g := [3]int64{got.ColAt(got.Col("iter")).Item(i).Int(), got.ColAt(got.Col("src")).Item(i).Int(),
			got.ColAt(got.Col("sz")).Item(i).Int()}
		if g != w {
			t.Errorf("group %d is (iter, src, sz) %v, want %v", i, g, w)
		}
	}
}
