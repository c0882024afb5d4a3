package algebra

import (
	"strings"

	"repro/internal/xdm"
)

// Hash maps in the executor key each row on one pair of xdm.Keys. A pair
// with no string key is stored under its word projection (xdm.Key.Word),
// which hashes as plain memory, so only pairs holding a string pay for
// string hashing; the projection is a view of the one key, and a pair
// lands in the same map every time.
func pairWords(k [2]xdm.Key) ([2]xdm.Word, bool) {
	a, aok := k[0].Word()
	b, bok := k[1].Word()
	return [2]xdm.Word{a, b}, aok && bok
}

// rowCounter counts rows by identity — duplicate elimination, bag
// difference, grouping and ϱ's partitions all count this way.
type rowCounter struct {
	words map[[2]xdm.Word]int
	keys  map[[2]xdm.Key]int
}

// add adds delta to the row's count and returns the new count; the first
// add(row, 1) of a row returns 1. A row of one cell pairs it with the zero
// key, and a row wider than two folds its tail cells into one string key.
func (c *rowCounter) add(row []xdm.Key, delta int) int {
	var k [2]xdm.Key
	copy(k[:], row)
	if len(row) > 2 {
		tail := make([]string, len(row)-1)
		for i, cell := range row[1:] {
			tail[i] = cell.String()
		}
		k[1] = xdm.KeyOf(xdm.NewString(strings.Join(tail, ",")))
	}
	if w, ok := pairWords(k); ok {
		if c.words == nil {
			c.words = map[[2]xdm.Word]int{}
		}
		c.words[w] += delta
		return c.words[w]
	}
	if c.keys == nil {
		c.keys = map[[2]xdm.Key]int{}
	}
	c.keys[k] += delta
	return c.keys[k]
}

// joinIndex maps a pair of xdm.EqKeys to the build rows holding it.
type joinIndex struct {
	words map[[2]xdm.Word][]int32
	keys  map[[2]xdm.Key][]int32
}

func (x *joinIndex) add(k [2]xdm.Key, row int32) {
	if w, ok := pairWords(k); ok {
		if x.words == nil {
			x.words = map[[2]xdm.Word][]int32{}
		}
		x.words[w] = append(x.words[w], row)
		return
	}
	if x.keys == nil {
		x.keys = map[[2]xdm.Key][]int32{}
	}
	x.keys[k] = append(x.keys[k], row)
}

func (x *joinIndex) rows(k [2]xdm.Key) []int32 {
	if w, ok := pairWords(k); ok {
		return x.words[w]
	}
	return x.keys[k]
}

// rowKeys fills dst with the keys of row r of cols.
func rowKeys(dst []xdm.Key, cols []*Column, r int) []xdm.Key {
	for c, col := range cols {
		dst[c] = col.key(r)
	}
	return dst
}
