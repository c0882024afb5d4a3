package xdm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ItemKind discriminates the dynamic type of an Item.
type ItemKind uint8

// Item kinds. KUntyped is xs:untypedAtomic, the type of atomized node
// content; it participates in the promotion rules of general comparisons.
const (
	KNode ItemKind = iota
	KString
	KUntyped
	KInteger
	KDouble
	KBoolean
)

// String names the kind using XQuery type spellings.
func (k ItemKind) String() string {
	switch k {
	case KNode:
		return "node()"
	case KString:
		return "xs:string"
	case KUntyped:
		return "xs:untypedAtomic"
	case KInteger:
		return "xs:integer"
	case KDouble:
		return "xs:double"
	case KBoolean:
		return "xs:boolean"
	}
	return "item()"
}

// Item is one XDM item: a node reference or an atomic value. The zero Item
// is the node item with an invalid reference; construct items through the
// New* functions.
type Item struct {
	kind ItemKind
	node NodeRef
	str  string
	i    int64
	f    float64
	b    bool
}

// NewNode wraps a node reference as an item.
func NewNode(n NodeRef) Item { return Item{kind: KNode, node: n} }

// NewString returns an xs:string item.
func NewString(s string) Item { return Item{kind: KString, str: s} }

// NewUntyped returns an xs:untypedAtomic item.
func NewUntyped(s string) Item { return Item{kind: KUntyped, str: s} }

// NewInteger returns an xs:integer item.
func NewInteger(i int64) Item { return Item{kind: KInteger, i: i} }

// NewDouble returns an xs:double item.
func NewDouble(f float64) Item { return Item{kind: KDouble, f: f} }

// NewBoolean returns an xs:boolean item.
func NewBoolean(b bool) Item { return Item{kind: KBoolean, b: b} }

// Kind returns the item's dynamic kind.
func (it Item) Kind() ItemKind { return it.kind }

// IsNode reports whether the item is a node.
func (it Item) IsNode() bool { return it.kind == KNode }

// Node returns the wrapped node reference; valid only when IsNode.
func (it Item) Node() NodeRef { return it.node }

// Bool returns the boolean payload; valid only for KBoolean.
func (it Item) Bool() bool { return it.b }

// Int returns the integer payload; valid only for KInteger.
func (it Item) Int() int64 { return it.i }

// Float returns the double payload; valid only for KDouble.
func (it Item) Float() float64 { return it.f }

// StringValue returns the item's string value (fn:string semantics).
func (it Item) StringValue() string {
	switch it.kind {
	case KNode:
		return it.node.StringValue()
	case KString, KUntyped:
		return it.str
	case KInteger:
		return strconv.FormatInt(it.i, 10)
	case KDouble:
		return FormatDouble(it.f)
	case KBoolean:
		if it.b {
			return "true"
		}
		return "false"
	}
	return ""
}

// NumberValue returns the item cast to xs:double (fn:number semantics:
// non-numeric strings yield NaN rather than an error).
func (it Item) NumberValue() float64 {
	switch it.kind {
	case KInteger:
		return float64(it.i)
	case KDouble:
		return it.f
	case KBoolean:
		if it.b {
			return 1
		}
		return 0
	default:
		f, err := ParseDouble(trimWS(it.StringValue()))
		if err != nil {
			return math.NaN()
		}
		return f
	}
}

// IsNumeric reports whether the item is xs:integer or xs:double.
func (it Item) IsNumeric() bool { return it.kind == KInteger || it.kind == KDouble }

// String renders a diagnostic form.
func (it Item) String() string {
	switch it.kind {
	case KNode:
		return it.node.String()
	case KString:
		return fmt.Sprintf("%q", it.str)
	case KUntyped:
		return fmt.Sprintf("untyped(%q)", it.str)
	case KInteger:
		return strconv.FormatInt(it.i, 10)
	case KDouble:
		return FormatDouble(it.f)
	case KBoolean:
		return it.StringValue() + "()"
	}
	return "?"
}

// FormatDouble renders an xs:double following the XQuery casting rules
// closely enough for round-tripping: integral doubles in a safe range print
// without an exponent or fraction; NaN and infinities use XQuery spellings.
func FormatDouble(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ErrNotDouble is the (allocation-free) failure value of ParseDouble.
// Hot paths parse untyped content speculatively — join-key promotion and
// general comparisons call this per row — so failures must not build a
// fresh *strconv.NumError each time.
var ErrNotDouble = errors.New("xdm: not an xs:double")

// ParseDouble parses an xs:double literal, accepting the XQuery spellings
// INF, -INF and NaN. Strings that cannot open a float (anything not
// starting with a digit, sign, dot, or an Inf/NaN spelling) are rejected
// before strconv runs, so the common non-numeric probe costs no allocation.
func ParseDouble(s string) (float64, error) {
	switch s {
	case "INF", "+INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	if s == "" {
		return 0, ErrNotDouble
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9':
	case c == '+' || c == '-' || c == '.':
	case c == 'i' || c == 'I' || c == 'n' || c == 'N': // Inf/NaN spellings
	default:
		return 0, ErrNotDouble
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, ErrNotDouble
	}
	return f, nil
}

// ParseInteger parses an xs:integer literal.
func ParseInteger(s string) (int64, error) {
	return strconv.ParseInt(strings.TrimSpace(s), 10, 64)
}
