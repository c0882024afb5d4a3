package lru

import (
	"slices"
	"testing"
)

// keys collects a walk's keys in the order it yields them.
func keys(seq func(func(string, int) bool)) []string {
	var out []string
	for k := range seq {
		out = append(out, k)
	}
	return out
}

func TestZeroListIsUsable(t *testing.T) {
	var l List[string, int]
	if l.Len() != 0 {
		t.Fatalf("zero list has %d entries", l.Len())
	}
	if _, ok := l.Lookup("a"); ok {
		t.Fatal("zero list Lookup hit")
	}
	if _, ok := l.Touch("a"); ok {
		t.Fatal("zero list Touch hit")
	}
	if _, ok := l.Remove("a"); ok {
		t.Fatal("zero list Remove hit")
	}
	if got := keys(l.All()); got != nil {
		t.Fatalf("zero list All yields %v", got)
	}
	if got := keys(l.Backward()); got != nil {
		t.Fatalf("zero list Backward yields %v", got)
	}
	if n := l.Clear(); n != 0 {
		t.Fatalf("zero list Clear returns %d", n)
	}
	l.Put("a", 1)
	if v, ok := l.Lookup("a"); !ok || v != 1 || l.Len() != 1 {
		t.Fatalf("after Put: %v %v len %d", v, ok, l.Len())
	}
}

func TestRecencyOrder(t *testing.T) {
	var l List[string, int]
	for i, k := range []string{"a", "b", "c", "d"} {
		l.Put(k, i)
	}
	if got, want := keys(l.All()), []string{"d", "c", "b", "a"}; !slices.Equal(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
	if got, want := keys(l.Backward()), []string{"a", "b", "c", "d"}; !slices.Equal(got, want) {
		t.Fatalf("Backward = %v, want %v", got, want)
	}
	// Lookup leaves recency alone; Touch promotes.
	if v, _ := l.Lookup("a"); v != 0 {
		t.Fatalf("Lookup a = %d", v)
	}
	if got := keys(l.All()); got[3] != "a" {
		t.Fatalf("Lookup moved a: %v", got)
	}
	if v, ok := l.Touch("b"); !ok || v != 1 {
		t.Fatalf("Touch b = %v %v", v, ok)
	}
	if got, want := keys(l.All()), []string{"b", "d", "c", "a"}; !slices.Equal(got, want) {
		t.Fatalf("after Touch: %v, want %v", got, want)
	}
	// Put on an existing key replaces its value and promotes it.
	l.Put("a", 10)
	if got, want := keys(l.All()), []string{"a", "b", "d", "c"}; !slices.Equal(got, want) {
		t.Fatalf("after re-Put: %v, want %v", got, want)
	}
	if v, _ := l.Lookup("a"); v != 10 || l.Len() != 4 {
		t.Fatalf("re-Put a = %d, len %d", v, l.Len())
	}
	// Breaking out of a walk stops it.
	n := 0
	for range l.All() {
		n++
		break
	}
	for range l.Backward() {
		n++
		break
	}
	if n != 2 {
		t.Fatalf("broken walks yielded %d entries", n)
	}
}

func TestBackwardMayRemoveYielded(t *testing.T) {
	var l List[string, int]
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		l.Put(k, i)
	}
	// Remove every even value while walking least recent first: the
	// head, the tail and a middle entry all go.
	var seen []string
	for k, v := range l.Backward() {
		seen = append(seen, k)
		if v%2 == 0 {
			if got, ok := l.Remove(k); !ok || got != v {
				t.Fatalf("Remove %s = %v %v", k, got, ok)
			}
		}
	}
	if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(seen, want) {
		t.Fatalf("walk yielded %v, want %v", seen, want)
	}
	if got, want := keys(l.All()), []string{"d", "b"}; !slices.Equal(got, want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}
	if got, want := keys(l.Backward()), []string{"b", "d"}; !slices.Equal(got, want) {
		t.Fatalf("survivors backward %v, want %v", got, want)
	}
	// Removing everything during the walk empties the list.
	for k := range l.Backward() {
		l.Remove(k)
	}
	if l.Len() != 0 || keys(l.All()) != nil || keys(l.Backward()) != nil {
		t.Fatalf("list not empty: len %d", l.Len())
	}
	l.Put("z", 1)
	if got := keys(l.All()); !slices.Equal(got, []string{"z"}) {
		t.Fatalf("reuse after emptying: %v", got)
	}
}

func TestClearReturnsCount(t *testing.T) {
	var l List[int, string]
	for i := 0; i < 3; i++ {
		l.Put(i, "v")
	}
	if n := l.Clear(); n != 3 {
		t.Fatalf("Clear = %d, want 3", n)
	}
	if l.Len() != 0 {
		t.Fatalf("len %d after Clear", l.Len())
	}
	if _, ok := l.Lookup(1); ok {
		t.Fatal("entry survived Clear")
	}
	l.Put(7, "w")
	if v, ok := l.Touch(7); !ok || v != "w" || l.Len() != 1 {
		t.Fatalf("after Clear and Put: %v %v len %d", v, ok, l.Len())
	}
}
