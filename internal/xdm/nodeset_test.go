package xdm

import (
	"math/rand"
	"testing"
)

func buildDoc(t testing.TB, n int, uri string) *Document {
	t.Helper()
	b := NewBuilder(uri)
	for i := 0; i < n; i++ {
		b.StartElement("n")
	}
	for i := 0; i < n; i++ {
		b.EndElement()
	}
	return b.Done()
}

func TestNodeSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := []*Document{buildDoc(t, 50, "a"), buildDoc(t, 17, "b")}
	var set NodeSet
	oracle := map[NodeRef]bool{}
	for i := 0; i < 2000; i++ {
		d := docs[rng.Intn(len(docs))]
		n := NodeRef{D: d, Pre: int32(rng.Intn(d.Len()))}
		if got, want := set.Has(n), oracle[n]; got != want {
			t.Fatalf("step %d: Has(%v) = %v, want %v", i, n, got, want)
		}
		if got, want := set.Add(n), !oracle[n]; got != want {
			t.Fatalf("step %d: Add(%v) = %v, want %v", i, n, got, want)
		}
		oracle[n] = true
		if set.Len() != len(oracle) {
			t.Fatalf("step %d: Len = %d, want %d", i, set.Len(), len(oracle))
		}
	}
	set.Reset()
	if set.Len() != 0 {
		t.Fatalf("Len after Reset = %d", set.Len())
	}
	for n := range oracle {
		if set.Has(n) {
			t.Fatalf("Has(%v) after Reset", n)
		}
	}
}

// TestAccumulatorMatchesUnionExceptOracle drives random batches through
// the accumulator and checks, per batch, that the returned delta equals
// Except(batch, prev) and the accumulated sequence equals the running
// Union — the exact algebra the fixpoint drivers used to round-trip
// through.
func TestAccumulatorMatchesUnionExceptOracle(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		docs := []*Document{
			buildDoc(t, 10+rng.Intn(60), "a"),
			buildDoc(t, 10+rng.Intn(60), "b"),
		}
		var acc Accumulator
		var oracle Sequence
		for round := 0; round < 8; round++ {
			batch := make(Sequence, 0, 16)
			for i := 0; i < rng.Intn(25); i++ {
				d := docs[rng.Intn(len(docs))]
				batch = append(batch, NewNode(NodeRef{D: d, Pre: int32(rng.Intn(d.Len()))}))
			}
			wantDelta, err := Except(batch, oracle)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err = Union(batch, oracle)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := acc.Absorb(batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh) != len(wantDelta) {
				t.Fatalf("trial %d round %d: delta %d nodes, oracle %d", trial, round, len(fresh), len(wantDelta))
			}
			for i := range fresh {
				if !fresh[i].Same(wantDelta[i].Node()) {
					t.Fatalf("trial %d round %d: delta[%d] = %v, oracle %v", trial, round, i, fresh[i], wantDelta[i].Node())
				}
			}
			got := NodeSeq(acc.Nodes())
			if len(got) != len(oracle) {
				t.Fatalf("trial %d round %d: accumulated %d, oracle %d", trial, round, len(got), len(oracle))
			}
			for i := range got {
				if !got[i].Node().Same(oracle[i].Node()) {
					t.Fatalf("trial %d round %d: acc[%d] = %v, oracle %v", trial, round, i, got[i].Node(), oracle[i].Node())
				}
			}
			if acc.Len() != len(oracle) {
				t.Fatalf("trial %d round %d: Len = %d, oracle %d", trial, round, acc.Len(), len(oracle))
			}
			if len(oracle) > 0 && !acc.seen.Has(oracle[len(oracle)-1].Node()) {
				t.Fatalf("trial %d round %d: Has misses a member", trial, round)
			}
		}
	}
}

func TestAccumulatorRejectsNonNodes(t *testing.T) {
	var acc Accumulator
	if _, err := acc.Absorb(Sequence{NewInteger(1)}); err == nil {
		t.Fatal("Absorb accepted a non-node item")
	}
	if acc.Len() != 0 {
		t.Fatalf("failed Absorb mutated the accumulator: Len = %d", acc.Len())
	}
}
