package xdm

import (
	"cmp"
	"math"
	"strings"
)

// CompOp enumerates comparison operators shared by value comparisons
// (eq ne lt le gt ge) and general comparisons (= != < <= > >=).
type CompOp uint8

// Comparison operators.
const (
	OpEq CompOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the value-comparison spelling.
func (op CompOp) String() string {
	switch op {
	case OpEq:
		return "eq"
	case OpNe:
		return "ne"
	case OpLt:
		return "lt"
	case OpLe:
		return "le"
	case OpGt:
		return "gt"
	case OpGe:
		return "ge"
	}
	return "?"
}

// CompareValues compares two atomized items under value-comparison
// semantics: numeric types are promoted to xs:double when mixed; untyped
// operands are treated as strings against strings/untyped and as doubles
// against numerics; booleans compare only with booleans. Comparing a node
// item is a type error (callers atomize first).
func CompareValues(x, y Item, op CompOp) (bool, error) {
	if x.IsNode() || y.IsNode() {
		return false, NewError(ErrType, "value comparison over un-atomized node")
	}
	xv, yv, err := promote(x, y)
	if err != nil {
		return false, err
	}
	switch xv.Kind() {
	case KBoolean:
		return compareOrdered(boolRank(xv.Bool()), boolRank(yv.Bool()), op), nil
	case KInteger:
		return compareOrdered(xv.Int(), yv.Int(), op), nil
	case KDouble:
		a, b := xv.Float(), yv.Float()
		if a != a || b != b { // NaN comparisons are false except ne
			return op == OpNe, nil
		}
		return compareOrdered(a, b, op), nil
	default:
		return compareOrdered(xv.StringValue(), yv.StringValue(), op), nil
	}
}

// GeneralCompareItems compares one pair under general-comparison promotion:
// untyped vs numeric casts the untyped operand to xs:double (an uncastable
// string raises FORG0001), untyped vs anything else compares as strings.
func GeneralCompareItems(x, y Item, op CompOp) (bool, error) {
	x, y = AtomizeItem(x), AtomizeItem(y)
	if x.Kind() == KUntyped && y.IsNumeric() {
		f, err := ParseDouble(trimWS(x.StringValue()))
		if err != nil {
			return false, NewError(ErrCast, "cannot cast "+x.StringValue()+" to xs:double")
		}
		x = NewDouble(f)
	}
	if y.Kind() == KUntyped && x.IsNumeric() {
		f, err := ParseDouble(trimWS(y.StringValue()))
		if err != nil {
			return false, NewError(ErrCast, "cannot cast "+y.StringValue()+" to xs:double")
		}
		y = NewDouble(f)
	}
	if x.Kind() == KUntyped {
		x = NewString(x.StringValue())
	}
	if y.Kind() == KUntyped {
		y = NewString(y.StringValue())
	}
	return CompareValues(x, y, op)
}

// Key namespaces of EqKeys, outside every ItemKind.
const (
	eqString ItemKind = 16 + iota // strings and untyped by string value
	eqNumber                      // numerics by double image: numeric probes look here
	eqCast                        // numerics by double image: castable untyped probes look here
)

// EqKeys fills dst with the hash-join keys of one item under general
// comparison (=), and returns how many it wrote. The build side of a join
// inserts its rows under EqKeys(…, false) and the probe side looks up
// EqKeys(…, true); a build key meets a probe key exactly when
// GeneralCompareItems(=) holds, and then under exactly one key. Strings
// and untyped values meet by string value, numerics by their xs:double
// image (NaN meets nothing), and booleans by value; an untyped value that
// casts to xs:double meets numerics by that double, through eqNumber when
// it is built and eqCast when it probes. exact is false only for an
// integer whose xs:double image is inexact (beyond 2⁵³): it meets every
// number with the same image, so a join confirms each of its pairs with
// GeneralCompareItems. Every other item's keys are exact.
func EqKeys(dst *[2]Key, it Item, probe bool) (n int, exact bool) {
	it = AtomizeItem(it)
	var f float64
	switch it.kind {
	case KString, KUntyped:
		dst[0] = Key{kind: eqString, s: it.str}
		if it.kind == KString {
			return 1, true
		}
		g, err := ParseDouble(trimWS(it.str))
		if err != nil || g != g {
			return 1, true
		}
		dst[1] = Key{kind: eqNumber, w: doubleWord(g)}
		if probe {
			dst[1].kind = eqCast
		}
		return 2, true
	case KBoolean:
		dst[0] = KeyOf(it)
		return 1, true
	case KInteger:
		f = float64(it.i)
		exact = f != 1<<63 && int64(f) == it.i
	default:
		if f = it.f; f != f {
			return 0, true
		}
		exact = true
	}
	dst[0] = Key{kind: eqNumber, w: doubleWord(f)}
	if probe {
		return 1, exact
	}
	dst[1] = Key{kind: eqCast, w: dst[0].w}
	return 2, exact
}

// CompareOrder is the one total order over items, used by every sort (ϱ,
// result extraction, order by). Nodes come first, in document order; then
// numerics, with NaN least and an integer compared exactly against any
// number; then every other item by its string value. It returns −1, 0 or +1.
func CompareOrder(a, b Item) int {
	if ca, cb := orderClass(a), orderClass(b); ca != cb {
		return cmp.Compare(ca, cb)
	}
	switch {
	case a.kind == KNode:
		if a.node.Same(b.node) {
			return 0
		}
		if a.node.Before(b.node) {
			return -1
		}
		return 1
	case a.kind == KInteger && b.kind == KInteger:
		return cmp.Compare(a.i, b.i)
	case a.kind == KInteger:
		return compareIntDouble(a.i, b.f)
	case b.kind == KInteger:
		return -compareIntDouble(b.i, a.f)
	case a.kind == KDouble:
		return cmp.Compare(a.f, b.f)
	}
	return strings.Compare(a.StringValue(), b.StringValue())
}

func orderClass(it Item) int {
	switch {
	case it.kind == KNode:
		return 0
	case it.IsNumeric():
		return 1
	}
	return 2
}

// compareIntDouble compares an integer with a double exactly, NaN least.
func compareIntDouble(i int64, f float64) int {
	switch {
	case f != f:
		return 1
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	if c := cmp.Compare(i, int64(f)); c != 0 {
		return c
	}
	return cmp.Compare(0, f-math.Trunc(f))
}

// GeneralCompare implements general comparisons over sequences: true iff
// some pair of items from the two atomized sequences satisfies the
// comparison (existential semantics, §3.2 of the paper's discussion of why
// `$x = 10` inspects the whole sequence).
func GeneralCompare(a, b Sequence, op CompOp) (bool, error) {
	for _, x := range a {
		for _, y := range b {
			ok, err := GeneralCompareItems(x, y, op)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// promote applies value-comparison type promotion to a pair of non-node
// items and returns operands of one common kind.
func promote(x, y Item) (Item, Item, error) {
	// untypedAtomic behaves as string in value comparisons.
	if x.Kind() == KUntyped {
		x = NewString(x.StringValue())
	}
	if y.Kind() == KUntyped {
		y = NewString(y.StringValue())
	}
	if x.Kind() == y.Kind() {
		return x, y, nil
	}
	if x.IsNumeric() && y.IsNumeric() {
		return NewDouble(x.NumberValue()), NewDouble(y.NumberValue()), nil
	}
	return Item{}, Item{}, NewError(ErrType,
		"cannot compare "+x.Kind().String()+" with "+y.Kind().String())
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

type ordered interface {
	~int | ~int64 | ~float64 | ~string
}

func compareOrdered[T ordered](a, b T, op CompOp) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

func trimWS(s string) string {
	start, end := 0, len(s)
	for start < end && isXMLSpace(s[start]) {
		start++
	}
	for end > start && isXMLSpace(s[end-1]) {
		end--
	}
	return s[start:end]
}

func isXMLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
