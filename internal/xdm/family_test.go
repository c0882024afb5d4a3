package xdm

import (
	"fmt"
	"math/rand"
	"testing"
)

// constructedDoc is what an element constructor such as <z><y/></z> mints:
// a fresh document of its own, ordered after every stored one.
func constructedDoc() *Document {
	b := NewBuilder("")
	b.StartElement("z")
	b.StartElement("y")
	b.EndElement()
	b.EndElement()
	return b.Done()
}

// unionExcept is the rebuild-everything oracle for one iteration's round:
// ∆ = batch except res and the next res = batch union res, each re-sorted
// and re-deduplicated from scratch.
func unionExcept(t *testing.T, res, batch Sequence) (delta, next Sequence) {
	t.Helper()
	delta, err := Except(batch, res)
	if err != nil {
		t.Fatal(err)
	}
	next, err = Union(batch, res)
	if err != nil {
		t.Fatal(err)
	}
	return delta, next
}

func requireNodes(t *testing.T, what string, got []NodeRef, want Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Same(want[i].Node()) {
			t.Fatalf("%s: node %d = %v, oracle %v", what, i, got[i], want[i].Node())
		}
	}
}

// readSchedules are the ways a fixpoint loop reads res: every round
// (Naïve, whose feed is res), every third round, or only after the last
// round (Delta, which reads res once per execution). A read orders the
// runs absorbed since the last one, so each schedule leaves a different
// number of them to sort and merge.
var readSchedules = []struct {
	name  string
	every int // read after rounds every-1, 2·every-1, …; 0: after the last only
}{{"every round", 1}, {"every third round", 3}, {"after the last round", 0}}

// checkAbsorbTrial drives random batches of (iteration, node) pairs over
// iters iterations through Family.Absorb and checks them against the
// union/except oracle: per iteration, every round's ∆ must be exactly the
// batch's new nodes in document order, and res, whenever the schedule
// reads it, the running union in document order. A second read in the
// same round must leave the slice the first one returned unchanged. Nodes
// come from two stored documents and a constructed one; iteration ids
// arrive interleaved, some iterations are empty in the seed round and
// first appear later, and every round leaves some out. Batches are
// duplicate-ridden and unsorted, as payload answers are, and now and then
// one is offered a non-node item, which Add must reject. The trial runs
// twice over the same families, with a Reset of res in between, as core's
// loop resets res after round 0.
func checkAbsorbTrial(t *testing.T, trial, iters, every int) {
	t.Helper()
	const rounds = 8
	rng := rand.New(rand.NewSource(int64(100 + trial)))
	docs := []*Document{
		buildDoc(t, 10+rng.Intn(60), "a"),
		buildDoc(t, 10+rng.Intn(60), "b"),
		constructedDoc(),
	}
	if iters == 0 {
		iters = 2 + rng.Intn(7)
	}
	var res, batch Family
	for pass := range 2 {
		res.Reset()
		oracle := make([]Sequence, iters)
		for round := range rounds {
			what := fmt.Sprintf("trial %d pass %d round %d", trial, pass, round)
			// Round r draws from the first 1+2r ids only, so higher ids
			// are empty in the seed round and join later.
			live := min(iters, 1+2*round)
			perIter := make([]Sequence, iters)
			batch.Reset()
			for k := rng.Intn(30); k > 0; k-- {
				id := rng.Intn(live)
				d := docs[rng.Intn(len(docs))]
				it := NewNode(NodeRef{D: d, Pre: int32(rng.Intn(d.Len()))})
				if err := batch.Add(int32(id), it); err != nil {
					t.Fatal(err)
				}
				perIter[id] = append(perIter[id], it)
			}
			if rng.Intn(4) == 0 {
				n := batch.Len()
				if err := batch.Add(0, NewInteger(42)); CodeOf(err) != ErrType {
					t.Fatalf("%s: Add of an integer = %v, want XPTY0004", what, err)
				}
				if batch.Len() != n {
					t.Fatalf("%s: rejected Add changed the batch", what)
				}
			}
			delta := res.Absorb(&batch)
			read := round == rounds-1 || every > 0 && round%every == every-1
			deltaLen, resLen := 0, 0
			for id := range iters {
				var want Sequence
				want, oracle[id] = unionExcept(t, oracle[id], perIter[id])
				requireNodes(t, fmt.Sprintf("%s iter %d ∆", what, id), delta.Nodes(int32(id)), want)
				requireNodes(t, fmt.Sprintf("%s iter %d batch", what, id), batch.Nodes(int32(id)), perIter[id])
				if read {
					got := res.Nodes(int32(id))
					requireNodes(t, fmt.Sprintf("%s iter %d res", what, id), got, oracle[id])
					requireNodes(t, fmt.Sprintf("%s iter %d res, read again", what, id), res.Nodes(int32(id)), oracle[id])
					requireNodes(t, fmt.Sprintf("%s iter %d res after a second read", what, id), got, oracle[id])
				}
				deltaLen += len(want)
				resLen += len(oracle[id])
			}
			if delta.Len() != deltaLen || res.Len() != resLen {
				t.Fatalf("%s: Len ∆ %d res %d, oracle %d and %d", what, delta.Len(), res.Len(), deltaLen, resLen)
			}
		}
	}
	// Re-absorbing what res already holds is no growth.
	batch.Reset()
	for id := range iters {
		for _, n := range res.Nodes(int32(id)) {
			if err := batch.Add(int32(id), NewNode(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := res.Len()
	if d := res.Absorb(&batch); d.Len() != 0 || res.Len() != before {
		t.Fatalf("trial %d: re-absorbing res gave ∆ of %d, Len %d → %d", trial, d.Len(), before, res.Len())
	}
}

// TestFamilyAbsorbMatchesUnionExceptOracle checks the many-iteration
// family, the relational µ's case, against the union/except oracle under
// every read schedule.
func TestFamilyAbsorbMatchesUnionExceptOracle(t *testing.T) {
	for _, sched := range readSchedules {
		t.Run(sched.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				checkAbsorbTrial(t, 2*trial, 0, sched.every)
			}
		})
	}
}

// TestAccumulatorMatchesUnionExceptOracle checks the one-iteration family,
// the interpreter's per-binding fixpoint, against the union/except oracle
// under every read schedule, and that the zero Family is an empty
// one-iteration family.
func TestAccumulatorMatchesUnionExceptOracle(t *testing.T) {
	var zero Family
	if zero.Len() != 0 || zero.Nodes(0) != nil {
		t.Fatal("the zero Family is not an empty one-iteration family")
	}
	for _, sched := range readSchedules {
		t.Run(sched.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				checkAbsorbTrial(t, 2*trial+1, 1, sched.every)
			}
		})
	}
}

// TestAbsorbAndReadAllocateNothing: once its buffers have grown, a family
// absorbs a round that interleaves res and reads res back in document
// order without allocating. The read merges into the spare buffer the
// iteration keeps; a merge that allocated its output would cost one
// allocation per read.
func TestAbsorbAndReadAllocateNothing(t *testing.T) {
	d := buildDoc(t, 200, "a")
	var even, odd, res Family
	for pre := int32(1); pre < int32(d.Len()); pre++ {
		if pre%2 == 0 {
			even.AddNodes(0, []NodeRef{{D: d, Pre: pre}})
		} else {
			odd.AddNodes(0, []NodeRef{{D: d, Pre: pre}})
		}
	}
	round := func() {
		res.Reset()
		res.Absorb(&even)
		res.Absorb(&odd) // every node falls between two of res's
		if got := res.Nodes(0); len(got) != d.Len()-1 || !got[0].Before(got[1]) {
			t.Fatalf("res holds %d nodes, want %d in document order", len(got), d.Len()-1)
		}
	}
	round() // warm: grow the log, the spare buffer, the screen and ∆
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("absorbing an interleaving round and reading res: %v allocs, want 0", allocs)
	}
}

// TestAccumulatorRejectsNonNodes: the fixed point ranges over node()*, so
// Add rejects every atomic item with XPTY0004 and leaves the batch as it
// was, whether the batch or the iteration is empty or not.
func TestAccumulatorRejectsNonNodes(t *testing.T) {
	d := buildDoc(t, 5, "a")
	node := NewNode(NodeRef{D: d, Pre: 1})
	for _, bad := range []Item{NewInteger(42), NewString("x"), NewDouble(1.5), NewBoolean(true)} {
		var batch Family
		for _, iter := range []int32{0, 3} {
			if err := batch.Add(iter, bad); CodeOf(err) != ErrType {
				t.Fatalf("Add(%d, %v) = %v, want XPTY0004", iter, bad, err)
			}
			if batch.Len() != 0 || batch.Nodes(iter) != nil {
				t.Fatalf("rejected Add(%d, %v) changed the empty batch", iter, bad)
			}
		}
		if err := batch.Add(0, node); err != nil {
			t.Fatal(err)
		}
		if err := batch.Add(0, bad); CodeOf(err) != ErrType {
			t.Fatalf("Add(0, %v) after a node = %v, want XPTY0004", bad, err)
		}
		if batch.Len() != 1 || len(batch.Nodes(0)) != 1 {
			t.Fatalf("rejected Add(0, %v) changed the batch", bad)
		}
		var res Family
		if delta := res.Absorb(&batch); delta.Len() != 1 || !delta.Nodes(0)[0].Same(node.Node()) {
			t.Fatalf("absorbing the batch after a rejected Add gave ∆ of %d", delta.Len())
		}
	}
}
