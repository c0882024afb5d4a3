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

// TestNodeSetResetsAcrossGenerations reuses one set through many Resets,
// as a family reused across fixpoint executions does: each generation
// meets two stored documents (one past the dense-tier bound, so it starts
// sparse and upgrades) and a fresh constructed fragment. Membership must
// match the oracle in every generation, dense must name the one document
// exactly when every member lies in its dense tier, and the sets of
// fragments no later generation meets must not pile up.
func TestNodeSetResetsAcrossGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, large := buildDoc(t, 300, "small"), buildDoc(t, 6000, "large")
	var set NodeSet
	for gen := range 40 {
		set.Reset()
		frag := constructedDoc()
		docs := []*Document{small, large, frag}
		oracle := map[NodeRef]bool{}
		for range 200 + rng.Intn(200) {
			d := docs[rng.Intn(len(docs))]
			n := NodeRef{D: d, Pre: int32(rng.Intn(d.Len()))}
			if got, want := set.Add(n), !oracle[n]; got != want {
				t.Fatalf("gen %d: Add(%v) = %v, want %v", gen, n, got, want)
			}
			oracle[n] = true
		}
		for _, d := range docs {
			for pre := range int32(d.Len()) {
				n := NodeRef{D: d, Pre: pre}
				if set.Has(n) != oracle[n] {
					t.Fatalf("gen %d: Has(%v) = %v, want %v", gen, n, !oracle[n], oracle[n])
				}
			}
		}
		if d, bitmap := set.dense(); d != nil && bitmap != nil {
			t.Fatalf("gen %d: dense names %s for a set over three documents", gen, d.URI)
		}
		if len(set.docs) > retainDocs+3 {
			t.Fatalf("gen %d: %d document sets retained", gen, len(set.docs))
		}
	}
	// One document in the dense tier: dense lists it; in the sparse tier
	// (a few members of the large document in a new set) it does not. A
	// Reset keeps an upgraded bitmap, so the reused set would list it.
	set.Reset()
	set.Add(NodeRef{D: small, Pre: 7})
	set.Add(NodeRef{D: small, Pre: 70})
	if d, bitmap := set.dense(); d != small || len(bitmap) != (small.Len()+63)/64 || bitmap[1]&(1<<6) == 0 {
		t.Fatalf("dense over one small document = %v, %v", d, bitmap)
	}
	var sparse NodeSet
	sparse.Add(NodeRef{D: large, Pre: 7})
	if _, bitmap := sparse.dense(); bitmap != nil {
		t.Fatal("dense returned a bitmap for a sparse-tier document")
	}
}
