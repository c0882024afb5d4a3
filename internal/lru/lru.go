// Package lru is the one recency list behind the serving layer's caches:
// the plan cache, the result cache and the document cache. A List is a
// map plus an intrusive doubly linked list in recency order. It has no
// lock and no budget: each cache holds its own lock and decides what may
// leave (a document pinned by a running query may not), walking the list
// least recent first with Backward.
package lru

import "iter"

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V] // prev is more recent, next less recent
}

// List is a keyed recency list. Its zero value is an empty list ready to
// use. It is not safe for concurrent use.
type List[K comparable, V any] struct {
	m          map[K]*node[K, V]
	head, tail *node[K, V] // most and least recent; nil when empty
}

// Len returns the number of entries.
func (l *List[K, V]) Len() int { return len(l.m) }

// Lookup returns the value for k without changing its recency.
func (l *List[K, V]) Lookup(k K) (V, bool) {
	if n, ok := l.m[k]; ok {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Touch returns the value for k and makes k the most recent entry.
func (l *List[K, V]) Touch(k K) (V, bool) {
	n, ok := l.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.unlink(n)
	l.pushFront(n)
	return n.val, true
}

// Put inserts k, or replaces its value, as the most recent entry.
func (l *List[K, V]) Put(k K, v V) {
	if n, ok := l.m[k]; ok {
		n.val = v
		l.unlink(n)
		l.pushFront(n)
		return
	}
	if l.m == nil {
		l.m = make(map[K]*node[K, V])
	}
	n := &node[K, V]{key: k, val: v}
	l.m[k] = n
	l.pushFront(n)
}

// Remove deletes k and returns the value it held.
func (l *List[K, V]) Remove(k K) (V, bool) {
	n, ok := l.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	delete(l.m, k)
	l.unlink(n)
	return n.val, true
}

// Clear deletes every entry and returns how many there were.
func (l *List[K, V]) Clear() int {
	n := len(l.m)
	l.m, l.head, l.tail = nil, nil, nil
	return n
}

// All yields the entries most recent first. The loop body must not change
// the list.
func (l *List[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for n := l.head; n != nil; n = n.next {
			if !yield(n.key, n.val) {
				return
			}
		}
	}
}

// Backward yields the entries least recent first, the order eviction
// considers them in. The loop body may Remove the entry it was given.
func (l *List[K, V]) Backward() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for n := l.tail; n != nil; {
			prev := n.prev
			if !yield(n.key, n.val) {
				return
			}
			n = prev
		}
	}
}

func (l *List[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *List[K, V]) pushFront(n *node[K, V]) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	} else {
		l.tail = n
	}
	l.head = n
}
