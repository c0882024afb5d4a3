package xdm

import (
	"fmt"
	"math"
)

// Key is an item's exact identity as a comparable value: KeyOf(a) ==
// KeyOf(b) exactly when a and b are the same node, or atomic values of the
// same kind and value. It is the one identity that duplicate elimination,
// bag difference, grouping, fixpoint iterations and plan hash-consing
// share. Nodes key on their identity word (NodeWord), integers on their
// exact int64, booleans on a bit, strings and untyped atomics on (kind,
// string value), and doubles on their bits under one rule: a single NaN,
// and −0 equal to +0.
type Key struct {
	kind ItemKind
	w    uint64
	s    string
}

// KeyOf returns the item's exact identity key.
func KeyOf(it Item) Key {
	switch it.kind {
	case KNode:
		return NodeKey(NodeWord(it.node))
	case KString, KUntyped:
		return Key{kind: it.kind, s: it.str}
	case KInteger:
		return Key{kind: KInteger, w: uint64(it.i)}
	case KDouble:
		return Key{kind: KDouble, w: doubleWord(it.f)}
	case KBoolean:
		if it.b {
			return Key{kind: KBoolean, w: 1}
		}
	}
	return Key{kind: it.kind}
}

// NodeKey is the key of the node whose identity word is w, so a column of
// packed identity words is already a column of keys.
func NodeKey(w uint64) Key { return Key{kind: KNode, w: w} }

// String renders the key unambiguously, for signatures built as text.
func (k Key) String() string { return fmt.Sprintf("%d:%x:%q", k.kind, k.w, k.s) }

// NodeWord packs a node identity into one word: the document's global
// creation stamp in the high half, the preorder rank in the low. Stamps
// are a monotone counter starting at 1, so the packing is injective for
// the first 2³² documents of a process, and the zero word is no node's;
// the guard turns the (constructor-heavy server) overflow case into a loud
// failure instead of silent key collisions.
func NodeWord(n NodeRef) uint64 {
	stamp := uint64(n.D.stamp)
	if stamp>>32 != 0 {
		panic("xdm: document stamp exceeds the packed node-identity space (2^32 documents)")
	}
	return stamp<<32 | uint64(uint32(n.Pre))
}

// doubleWord is a double's identity word: its bits, with every NaN one
// value and −0 folded into +0.
func doubleWord(f float64) uint64 {
	switch {
	case f != f:
		return math.Float64bits(math.NaN())
	case f == 0:
		return 0
	}
	return math.Float64bits(f)
}
