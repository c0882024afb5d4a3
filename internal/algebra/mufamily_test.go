package algebra

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/xdm"
)

// These property tests drive randomized iter|pos|item batches through the
// relational µ's family plumbing — muBody.batch maps iter values to dense
// iteration ids, xdm.Family.Absorb folds each round in, muBody.table
// materializes ∆ and res — and check every round against a
// rebuild-everything plus/minus oracle over rows, byte for byte.

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

// setsOracle is a node-set family rebuilt from scratch on every operation:
// per iter value (by key), the iter item and its nodes keyed by item key.
type setsOracle struct {
	iter  map[xdm.Key]xdm.Item
	nodes map[xdm.Key]map[xdm.Key]xdm.Item
}

func newSetsOracle() *setsOracle {
	return &setsOracle{iter: map[xdm.Key]xdm.Item{}, nodes: map[xdm.Key]map[xdm.Key]xdm.Item{}}
}

func (s *setsOracle) add(iter, node xdm.Item) {
	k := xdm.KeyOf(iter)
	if s.nodes[k] == nil {
		s.iter[k] = iter
		s.nodes[k] = map[xdm.Key]xdm.Item{}
	}
	s.nodes[k][xdm.KeyOf(node)] = node
}

func oracleOf(t *Table) *setsOracle {
	out := newSetsOracle()
	for r := 0; r < t.Len(); r++ {
		out.add(t.At(r, t.Col("iter")), t.At(r, t.Col("item")))
	}
	return out
}

// plus returns s ∪ o per iteration as a fresh family.
func (s *setsOracle) plus(o *setsOracle) *setsOracle {
	out := newSetsOracle()
	for _, f := range []*setsOracle{s, o} {
		for k, ns := range f.nodes {
			for _, n := range ns {
				out.add(f.iter[k], n)
			}
		}
	}
	return out
}

// minus returns s \ o per iteration as a fresh family.
func (s *setsOracle) minus(o *setsOracle) *setsOracle {
	out := newSetsOracle()
	for k, ns := range s.nodes {
		for nk, n := range ns {
			if _, drop := o.nodes[k][nk]; !drop {
				out.add(s.iter[k], n)
			}
		}
	}
	return out
}

func (s *setsOracle) len() int {
	n := 0
	for _, ns := range s.nodes {
		n += len(ns)
	}
	return n
}

// rows materializes the family the way µ's result relation is specified:
// iterations in xdm.CompareOrder of their iter values, nodes in document
// order, pos the 1-based rank within the iteration.
func (s *setsOracle) rows() *rowOracle {
	iters := make([]xdm.Item, 0, len(s.iter))
	for _, it := range s.iter {
		iters = append(iters, it)
	}
	sort.Slice(iters, func(i, j int) bool { return xdm.CompareOrder(iters[i], iters[j]) < 0 })
	out := &rowOracle{cols: []string{"iter", "pos", "item"}}
	for _, iter := range iters {
		var ns []xdm.NodeRef
		for _, n := range s.nodes[xdm.KeyOf(iter)] {
			ns = append(ns, n.Node())
		}
		xdm.SortNodes(ns)
		for i, n := range ns {
			out.rows = append(out.rows, []xdm.Item{iter, xdm.NewInteger(int64(i + 1)), xdm.NewNode(n)})
		}
	}
	return out
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
		rng.Shuffle(len(iters), func(i, j int) { iters[i], iters[j] = iters[j], iters[i] })
		body := &muBody{ids: map[xdm.Key]int32{}, out: new(xdm.Family)}
		// The seed draws from the first two iter values only, so the rest
		// get their ids in later rounds.
		seedT := randBatch(rng, docs, iters[:2], 1+rng.Intn(20))
		seed, err := body.batch(seedT)
		if err != nil {
			t.Fatal(err)
		}
		var acc xdm.Family
		acc.Absorb(seed)
		oracle := oracleOf(seedT)
		requireTableMatchesOracle(t, fmt.Sprintf("trial %d seed", trial), body.table(&acc), oracle.rows())
		rounds := 3 + rng.Intn(5)
		for round := 0; round < rounds; round++ {
			what := fmt.Sprintf("trial %d round %d", trial, round)
			batchT := randBatch(rng, docs, iters, rng.Intn(40))
			out, err := body.batch(batchT)
			if err != nil {
				t.Fatal(err)
			}
			delta := acc.Absorb(out)
			odelta := oracleOf(batchT).minus(oracle)
			oracle = oracle.plus(odelta)
			if delta.Len() != odelta.len() {
				t.Fatalf("%s: delta size %d, oracle %d", what, delta.Len(), odelta.len())
			}
			requireTableMatchesOracle(t, what+" delta", body.table(delta), odelta.rows())
			if acc.Len() != oracle.len() {
				t.Fatalf("%s: accumulated size %d, oracle %d", what, acc.Len(), oracle.len())
			}
			requireTableMatchesOracle(t, what+" accumulated", body.table(&acc), oracle.rows())
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
	body := &muBody{ids: map[xdm.Key]int32{}, out: new(xdm.Family)}
	seed, err := body.batch(seedT)
	if err != nil {
		t.Fatal(err)
	}
	var acc xdm.Family
	acc.Absorb(seed)
	before := acc.Len()
	want := oracleOf(seedT).rows()
	for _, replayT := range []*Table{seedT, randBatch(rng, docs, iters, 0)} {
		replay, err := body.batch(replayT)
		if err != nil {
			t.Fatal(err)
		}
		if delta := acc.Absorb(replay); delta.Len() != 0 {
			t.Fatalf("re-absorbing %d known rows produced a delta of %d", replayT.Len(), delta.Len())
		}
		if acc.Len() != before {
			t.Fatalf("size changed: %d -> %d", before, acc.Len())
		}
		requireTableMatchesOracle(t, "accumulated after replay", body.table(&acc), want)
	}
}
