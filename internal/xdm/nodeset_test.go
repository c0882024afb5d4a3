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
