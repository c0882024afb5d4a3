package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/xdm"
)

// These property tests drive randomized node batches through the
// incremental iterSets accumulator (absorb) and through the original
// rebuild-everything implementation (plus/minus, defined below) and
// assert identical observable state after every round: sizes, per-round
// deltas, and the full iter|pos|item materialization, byte for byte.

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

// randBatch builds an iter|pos|item table of random (iteration, node)
// pairs — duplicates and unsorted order included, as µ body outputs have.
func randBatch(rng *rand.Rand, docs []*xdm.Document, iters []xdm.Item, rows int) *Table {
	out := make([][]xdm.Item, 0, rows)
	for i := 0; i < rows; i++ {
		d := docs[rng.Intn(len(docs))]
		pre := int32(rng.Intn(d.Len()))
		iter := iters[rng.Intn(len(iters))]
		out = append(out, []xdm.Item{iter, xdm.NewInteger(int64(i)), xdm.NewNode(xdm.NodeRef{D: d, Pre: pre})})
	}
	return NewTable([]string{"iter", "pos", "item"}, out)
}

// plus returns the union s ∪ o (per iteration) as a freshly built family:
// the pre-absorb reference implementation, kept as the oracle for the
// equivalence property tests.
func (s *iterSets) plus(o *iterSets) *iterSets {
	out := emptyIterSets()
	for _, iter := range s.iters {
		for _, n := range s.sets[xdm.KeyOf(iter)].nodes {
			out.add(iter, n)
		}
	}
	for _, iter := range o.iters {
		for _, n := range o.sets[xdm.KeyOf(iter)].nodes {
			out.add(iter, n)
		}
	}
	out.sortAll()
	return out
}

// minus returns s \ o (per iteration); reference oracle twin of plus.
func (s *iterSets) minus(o *iterSets) *iterSets {
	out := emptyIterSets()
	for _, iter := range s.iters {
		drop := o.sets[xdm.KeyOf(iter)]
		for _, n := range s.sets[xdm.KeyOf(iter)].nodes {
			if drop != nil && drop.seen.Has(n) {
				continue
			}
			out.add(iter, n)
		}
	}
	out.sortAll()
	return out
}

func itemsIdentical(a, b xdm.Item) bool { return xdm.KeyOf(a) == xdm.KeyOf(b) }

func requireTablesIdentical(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, oracle has %d", what, got.Len(), want.Len())
	}
	for r := 0; r < got.Len(); r++ {
		grow, wrow := got.Row(r), want.Row(r)
		if len(grow) != len(wrow) {
			t.Fatalf("%s: row %d width %d vs %d", what, r, len(grow), len(wrow))
		}
		for c := range grow {
			if !itemsIdentical(grow[c], wrow[c]) {
				t.Fatalf("%s: row %d col %d: %v vs oracle %v", what, r, c, grow[c], wrow[c])
			}
		}
	}
}

func TestIterSetsAbsorbMatchesPlusMinusOracle(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		docs := []*xdm.Document{
			randDoc(rng, 30+rng.Intn(60), "a.xml"),
			randDoc(rng, 30+rng.Intn(60), "b.xml"),
		}
		// Iterations mix the item kinds the loop-lifted iter column carries.
		iters := []xdm.Item{
			xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(7),
			xdm.NewNode(docs[0].Root()),
			xdm.NewString("it"),
		}
		seedT := randBatch(rng, docs, iters, 1+rng.Intn(20))
		acc, err := newIterSets(seedT)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := newIterSets(seedT)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 3 + rng.Intn(5)
		for round := 0; round < rounds; round++ {
			batch := randBatch(rng, docs, iters, rng.Intn(40))
			out, err := newIterSets(batch)
			if err != nil {
				t.Fatal(err)
			}
			delta := acc.absorb(out)
			odelta := out.minus(oracle)
			oracle = oracle.plus(odelta)
			if delta.Len() != odelta.Len() {
				t.Fatalf("trial %d round %d: delta size %d, oracle %d", trial, round, delta.Len(), odelta.Len())
			}
			requireTablesIdentical(t, fmt.Sprintf("trial %d round %d delta", trial, round),
				delta.table(), odelta.table())
			if acc.Len() != oracle.Len() {
				t.Fatalf("trial %d round %d: accumulated size %d, oracle %d", trial, round, acc.Len(), oracle.Len())
			}
			requireTablesIdentical(t, fmt.Sprintf("trial %d round %d accumulated", trial, round),
				acc.table(), oracle.table())
		}
	}
}

// TestIterSetsAbsorbEmptyBatch: absorbing an already-known batch returns
// an empty delta and leaves the accumulated family untouched.
func TestIterSetsAbsorbEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := []*xdm.Document{randDoc(rng, 40, "a.xml")}
	iters := []xdm.Item{xdm.NewInteger(1), xdm.NewInteger(2)}
	seedT := randBatch(rng, docs, iters, 25)
	acc, err := newIterSets(seedT)
	if err != nil {
		t.Fatal(err)
	}
	before := acc.Len()
	replay, err := newIterSets(seedT)
	if err != nil {
		t.Fatal(err)
	}
	delta := acc.absorb(replay)
	if delta.Len() != 0 {
		t.Fatalf("re-absorbing known nodes produced a delta of %d", delta.Len())
	}
	if acc.Len() != before {
		t.Fatalf("size changed: %d -> %d", before, acc.Len())
	}
}

// TestRowSetPackedMatchesGeneric: a row counter draws the same
// distinct-row boundaries whether a node column is packed (its stored
// words are the keys) or generic (each item is keyed by xdm.KeyOf), across
// mixed item kinds — including integers beyond 2⁵³, which stay distinct.
func TestRowSetPackedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	doc := randDoc(rng, 30, "a.xml")
	mk := func() xdm.Item {
		switch rng.Intn(6) {
		case 0, 1:
			return xdm.NewNode(xdm.NodeRef{D: doc, Pre: int32(rng.Intn(doc.Len()))})
		case 2:
			return xdm.NewInteger(int64(rng.Intn(5)))
		case 3:
			return xdm.NewInteger(int64(1)<<53 + int64(rng.Intn(3)))
		case 4:
			return xdm.NewString(fmt.Sprintf("s%d", rng.Intn(5)))
		default:
			return xdm.NewBoolean(rng.Intn(2) == 0)
		}
	}
	for _, width := range []int{1, 2, 3} {
		rows := make([][]xdm.Item, 500)
		for i := range rows {
			rows[i] = make([]xdm.Item, width)
			for c := range rows[i] {
				rows[i][c] = mk()
			}
		}
		// Column 0 as nodes only, so it packs; the other columns stay mixed.
		for i := range rows {
			rows[i][0] = xdm.NewNode(xdm.NodeRef{D: doc, Pre: int32(rng.Intn(doc.Len()))})
		}
		tab := NewTable(make([]string, width), rows)
		if !tab.ColAt(0).IsPacked() {
			t.Fatal("node column did not pack")
		}
		generic := make([]*Column, width)
		for c := range generic {
			generic[c] = genericColumn(materialize(tab.ColAt(c)))
		}
		var packed, plain rowCounter
		kp, kg := make([]xdm.Key, width), make([]xdm.Key, width)
		seen := map[string]bool{}
		for i, row := range rows {
			key := ""
			for _, it := range row {
				key += xdm.KeyOf(it).String() + "\x01"
			}
			want := !seen[key]
			seen[key] = true
			gotP := packed.add(rowKeys(kp, tab.cols, i), 1) == 1
			gotG := plain.add(rowKeys(kg, generic, i), 1) == 1
			if gotP != want || gotG != want {
				t.Fatalf("width %d row %d: new = %v packed, %v generic, want %v", width, i, gotP, gotG, want)
			}
		}
	}
}
