package xdm

import (
	"fmt"
	"math/rand"
	"slices"
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
// order without allocating, on both reads: a small document's members are
// listed off the screen's dense bitmap, while members of a large
// document's sparse tier, or of two documents, are sorted and merged into
// the spare buffer the iteration keeps. A read that allocated its output
// would cost one allocation per read.
func TestAbsorbAndReadAllocateNothing(t *testing.T) {
	small, large, other := buildDoc(t, 200, "small"), buildDoc(t, 20000, "large"), buildDoc(t, 50, "other")
	for _, c := range []struct {
		name  string
		node  func(i int) NodeRef // the i-th of 150 members
		lists bool                // whether the read lists the bitmap
	}{
		{"dense bitmap", func(i int) NodeRef { return NodeRef{D: small, Pre: int32(1 + i)} }, true},
		{"sparse tier", func(i int) NodeRef { return NodeRef{D: large, Pre: int32(1 + 97*i)} }, false},
		{"two documents", func(i int) NodeRef {
			if i%2 == 0 {
				return NodeRef{D: other, Pre: int32(1 + i/4)}
			}
			return NodeRef{D: small, Pre: int32(1 + i)}
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var even, odd, res Family
			members := map[NodeRef]bool{}
			for i := range 150 {
				n := c.node(i)
				members[n] = true
				if i%4 < 2 {
					even.AddNodes(0, []NodeRef{n})
				} else {
					odd.AddNodes(0, []NodeRef{n})
				}
			}
			round := func() {
				res.Reset()
				res.Absorb(&even)
				res.Absorb(&odd) // every node falls between two of res's
				if _, bitmap := res.first.listable(); (bitmap != nil) != c.lists {
					t.Fatalf("listable = %v, want %v", bitmap != nil, c.lists)
				}
				if got := res.Nodes(0); len(got) != len(members) || !got[0].Before(got[1]) {
					t.Fatalf("res holds %d nodes, want %d in document order", len(got), len(members))
				}
			}
			round() // warm: grow the log, the spare buffer, the screen and ∆
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Fatalf("absorbing an interleaving round and reading res: %v allocs, want 0", allocs)
			}
		})
	}
}

// TestBitmapReadMatchesMerge drives one random schedule of rounds through
// two families and reads every iteration back both ways — one family
// always lists the screen's bitmap where listable allows, the other always
// sorts and merges — so each read the bitmap can serve is checked against
// the merge, which the union/except oracle tests check. Rounds draw from a
// small document (its screen is listable) and, in some iterations, also
// from a second document (it is not).
func TestBitmapReadMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	small, other := buildDoc(t, 150, "small"), buildDoc(t, 40, "other")
	var listed, merged, batch Family
	var sc sortScratch
	lists := 0
	for round := range 40 {
		batch.Reset()
		for range 1 + rng.Intn(40) {
			id := int32(rng.Intn(3))
			d := small
			if id == 2 && rng.Intn(4) == 0 {
				d = other
			}
			batch.AddNodes(id, []NodeRef{{D: d, Pre: int32(rng.Intn(d.Len()))}})
		}
		listed.Absorb(&batch)
		merged.Absorb(&batch)
		if rng.Intn(3) != 0 {
			continue // leave runs for a later read
		}
		for id := range int32(3) {
			l, m := listed.set(id), merged.set(id)
			if l.sorted < len(l.nodes) {
				if d, bitmap := l.listable(); bitmap != nil {
					l.readBits(d, bitmap)
					lists++
				} else {
					l.merge(&sc)
				}
			}
			if m.sorted < len(m.nodes) {
				m.merge(&sc)
			}
			if len(l.nodes) != len(m.nodes) || len(l.nodes) != l.sorted {
				t.Fatalf("round %d iter %d: listed %d nodes (%d ordered), merged %d", round, id, len(l.nodes), l.sorted, len(m.nodes))
			}
			for i := range l.nodes {
				if !l.nodes[i].Same(m.nodes[i]) {
					t.Fatalf("round %d iter %d: node %d listed %v, merged %v", round, id, i, l.nodes[i], m.nodes[i])
				}
			}
		}
	}
	if lists == 0 {
		t.Fatal("no read listed a bitmap")
	}
}

// TestSortNodesMatchesDocumentOrder: over random batches from one document
// (sorted as rank words) and from two (sorted by the comparator), with
// duplicates, SortNodes and sortNodes with a kept scratch buffer give
// exactly the order NodeRef.Before defines and keep every duplicate; a
// family's run sort gives the same order with the duplicates dropped.
// Batches run past 64 nodes, where SortNodes takes the comparator and
// sortNodes keeps sorting words.
func TestSortNodesMatchesDocumentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := []*Document{buildDoc(t, 300, "a"), buildDoc(t, 5000, "b")}
	var pres []int32
	var sc sortScratch
	sorts := map[string]func([]NodeRef){
		"SortNodes": SortNodes,
		"sortNodes": func(ns []NodeRef) { pres = sortNodes(ns, pres) },
	}
	for trial := range 500 {
		n := rng.Intn(100)
		mixed := trial%3 == 0
		batch := make([]NodeRef, 0, n)
		for range n {
			d := docs[trial%2]
			if mixed {
				d = docs[rng.Intn(2)]
			}
			span := d.Len()
			if trial%5 == 0 {
				span = min(span, n/2+1) // dense: many duplicates
			}
			batch = append(batch, NodeRef{D: d, Pre: int32(rng.Intn(span))})
		}
		if n > 0 && trial%7 == 0 {
			batch = append(batch, batch[:n/2]...)
		}
		var want []NodeRef
		for name, sort := range sorts {
			count := map[NodeRef]int{}
			for _, x := range batch {
				count[x]++
			}
			got := slices.Clone(batch)
			sort(got)
			for i := range got {
				if count[got[i]]--; count[got[i]] < 0 {
					t.Fatalf("trial %d: %s changed the multiset at %d (%v)", trial, name, i, got[i])
				}
				if i > 0 && got[i].Before(got[i-1]) {
					t.Fatalf("trial %d: %s put %v before %v", trial, name, got[i-1], got[i])
				}
			}
			want = slices.Compact(got)
		}
		distinct := sc.run(slices.Clone(batch))
		if len(distinct) != len(want) {
			t.Fatalf("trial %d: run sort kept %d nodes, want %d", trial, len(distinct), len(want))
		}
		for i := range want {
			if !distinct[i].Same(want[i]) {
				t.Fatalf("trial %d: run sort node %d = %v, want %v", trial, i, distinct[i], want[i])
			}
		}
	}
}

// TestSortNodesAllocatesNothing: SortNodes borrows no heap buffer, on a
// one-document batch that fits its stack buffer and on one that does not,
// so DDO over more than 64 nodes allocates only its own copy and result.
func TestSortNodesAllocatesNothing(t *testing.T) {
	d := buildDoc(t, 1000, "a")
	for _, n := range []int{40, 200} {
		batch := make([]NodeRef, n)
		shuffle := func() {
			for i := range batch {
				batch[i] = NodeRef{D: d, Pre: int32((i * 617) % 997)}
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { shuffle(); SortNodes(batch) }); allocs != 0 {
			t.Fatalf("SortNodes of %d nodes: %v allocs, want 0", n, allocs)
		}
	}
	seq := make(Sequence, 200)
	for i := range seq {
		seq[i] = NewNode(NodeRef{D: d, Pre: int32((i * 617) % 997)})
	}
	want := testing.AllocsPerRun(100, func() {
		ns, _ := seq.Nodes()
		NodeSeq(slices.Clone(ns))
	})
	if allocs := testing.AllocsPerRun(100, func() { DDO(seq) }); allocs != want {
		t.Fatalf("DDO of 200 nodes: %v allocs, want %v (its node list, its copy and its result)", allocs, want)
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
