package xdm

import (
	"sort"
	"strings"
)

// Sequence is an ordered XDM item sequence. The empty sequence is nil.
type Sequence []Item

// Singleton wraps one item as a sequence.
func Singleton(it Item) Sequence { return Sequence{it} }

// NodeSeq wraps node references as a sequence, preserving order.
func NodeSeq(ns []NodeRef) Sequence {
	if len(ns) == 0 {
		return nil
	}
	out := make(Sequence, len(ns))
	for i, n := range ns {
		out[i] = NewNode(n)
	}
	return out
}

// Nodes extracts the node references of an all-node sequence. It returns an
// XPTY0004 error if a non-node item occurs.
func (s Sequence) Nodes() ([]NodeRef, error) {
	out := make([]NodeRef, 0, len(s))
	for _, it := range s {
		if !it.IsNode() {
			return nil, notNode(it)
		}
		out = append(out, it.Node())
	}
	return out, nil
}

// checkNodes returns the error Nodes reports on s, without the copy.
func checkNodes(s Sequence) error {
	for _, it := range s {
		if !it.IsNode() {
			return notNode(it)
		}
	}
	return nil
}

func notNode(it Item) error {
	return NewError(ErrType, "expected node()*, found "+it.Kind().String())
}

// DDO implements fs:distinct-doc-order: sorts an all-node sequence into
// document order and removes duplicate identities. Non-node items yield an
// XPTY0004 error.
func DDO(s Sequence) (Sequence, error) {
	ns, err := s.Nodes()
	return NodeSeq(dedupSorted(ns)), err
}

func dedupSorted(ns []NodeRef) []NodeRef {
	if len(ns) == 0 {
		return nil
	}
	sorted := make([]NodeRef, len(ns))
	copy(sorted, ns)
	SortNodes(sorted)
	out := sorted[:1]
	for _, n := range sorted[1:] {
		if !n.Same(out[len(out)-1]) {
			out = append(out, n)
		}
	}
	return out
}

// Union implements the XQuery `union` operator over node sequences:
// set union in document order.
func Union(a, b Sequence) (Sequence, error) {
	na, err := a.Nodes()
	if err != nil {
		return nil, err
	}
	nb, err := b.Nodes()
	if err != nil {
		return nil, err
	}
	return NodeSeq(dedupSorted(append(na, nb...))), nil
}

// Except implements the XQuery `except` operator: nodes of a that are not
// in b, in document order.
func Except(a, b Sequence) (Sequence, error) {
	na, err := a.Nodes()
	if err != nil {
		return nil, err
	}
	nb, err := b.Nodes()
	if err != nil {
		return nil, err
	}
	drop := nodeSet(nb)
	var keep []NodeRef
	for _, n := range na {
		if !drop[n] {
			keep = append(keep, n)
		}
	}
	return NodeSeq(dedupSorted(keep)), nil
}

// Intersect implements the XQuery `intersect` operator in document order.
// The set is built over the smaller operand and the larger one is scanned
// in place, so intersecting with a large fixpoint result costs a set of
// the small side only.
func Intersect(a, b Sequence) (Sequence, error) {
	if err := checkNodes(a); err != nil {
		return nil, err
	}
	if err := checkNodes(b); err != nil {
		return nil, err
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	in := make(map[NodeRef]bool, len(b))
	for _, it := range b {
		in[it.Node()] = true
	}
	var keep []NodeRef
	for _, it := range a {
		if n := it.Node(); in[n] {
			keep = append(keep, n)
		}
	}
	return NodeSeq(dedupSorted(keep)), nil
}

func nodeSet(ns []NodeRef) map[NodeRef]bool {
	m := make(map[NodeRef]bool, len(ns))
	for _, n := range ns {
		m[n] = true
	}
	return m
}

// SetEqual implements the paper's set-equality (s=) for node sequences:
// equality disregarding duplicates and order, i.e.
// fs:ddo(a) = fs:ddo(b) identity-wise. It errors on non-node items.
func SetEqual(a, b Sequence) (bool, error) {
	da, err := DDO(a)
	if err != nil {
		return false, err
	}
	db, err := DDO(b)
	if err != nil {
		return false, err
	}
	if len(da) != len(db) {
		return false, nil
	}
	for i := range da {
		if !da[i].Node().Same(db[i].Node()) {
			return false, nil
		}
	}
	return true, nil
}

// Atomize returns the typed-value sequence of the input (fn:data).
// Nodes atomize to xs:untypedAtomic of their string value, except comments
// and processing instructions which atomize to xs:string.
func Atomize(s Sequence) Sequence {
	if len(s) == 0 {
		return nil
	}
	out := make(Sequence, 0, len(s))
	for _, it := range s {
		out = append(out, AtomizeItem(it))
	}
	return out
}

// AtomizeItem atomizes one item.
func AtomizeItem(it Item) Item {
	if !it.IsNode() {
		return it
	}
	switch it.Node().Kind() {
	case CommentNode, PINode:
		return NewString(it.Node().StringValue())
	default:
		return NewUntyped(it.Node().StringValue())
	}
}

// EBV computes the effective boolean value of a sequence per the XQuery
// specification: () is false; a sequence whose first item is a node is
// true; a singleton boolean/number/string follows the value rules; anything
// else is a type error (FORG0006).
func EBV(s Sequence) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if s[0].IsNode() {
		return true, nil
	}
	if len(s) > 1 {
		return false, NewError(ErrEBV, "effective boolean value of multi-item non-node sequence")
	}
	it := s[0]
	switch it.Kind() {
	case KBoolean:
		return it.Bool(), nil
	case KInteger:
		return it.Int() != 0, nil
	case KDouble:
		f := it.Float()
		return f != 0 && f == f, nil
	case KString, KUntyped:
		return it.StringValue() != "", nil
	}
	return false, NewError(ErrEBV, "effective boolean value undefined for "+it.Kind().String())
}

// StringJoin concatenates the string values of all items with a separator.
func StringJoin(s Sequence, sep string) string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.StringValue()
	}
	return strings.Join(parts, sep)
}

// DistinctValues implements fn:distinct-values over atomized input: values
// are compared with the eq semantics (numeric promotion; untyped as string);
// NaN is equal to NaN for the purposes of distinct-values.
func DistinctValues(s Sequence) Sequence {
	type key struct {
		num  float64
		str  string
		b    bool
		kind uint8 // 0 numeric, 1 string, 2 boolean, 3 NaN
	}
	seen := make(map[key]bool)
	var out Sequence
	for _, raw := range Atomize(s) {
		var k key
		switch raw.Kind() {
		case KInteger:
			k = key{kind: 0, num: float64(raw.Int())}
		case KDouble:
			if f := raw.Float(); f != f {
				k = key{kind: 3}
			} else {
				k = key{kind: 0, num: f}
			}
		case KBoolean:
			k = key{kind: 2, b: raw.Bool()}
		default:
			k = key{kind: 1, str: raw.StringValue()}
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, raw)
		}
	}
	return out
}

// DeepEqual implements fn:deep-equal over two sequences: pairwise equality
// of atomic values (NaN equal to NaN) and recursive structural equality of
// nodes (names, attributes disregarding order, children in order).
func DeepEqual(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !deepEqualItems(a[i], b[i]) {
			return false
		}
	}
	return true
}

func deepEqualItems(x, y Item) bool {
	if x.IsNode() != y.IsNode() {
		return false
	}
	if !x.IsNode() {
		eq, err := CompareValues(x, y, OpEq)
		if err != nil {
			// deep-equal treats incomparable values as unequal, with the
			// NaN = NaN exception.
			if x.IsNumeric() && y.IsNumeric() {
				return x.NumberValue() != x.NumberValue() && y.NumberValue() != y.NumberValue()
			}
			return false
		}
		if !eq && x.IsNumeric() && y.IsNumeric() {
			return x.NumberValue() != x.NumberValue() && y.NumberValue() != y.NumberValue()
		}
		return eq
	}
	return deepEqualNodes(x.Node(), y.Node())
}

func deepEqualNodes(m, n NodeRef) bool {
	if m.Kind() != n.Kind() {
		return false
	}
	switch m.Kind() {
	case TextNode, CommentNode:
		return m.Value() == n.Value()
	case PINode:
		return m.Name() == n.Name() && m.Value() == n.Value()
	case AttributeNode:
		return m.Name() == n.Name() && m.Value() == n.Value()
	case ElementNode:
		if m.Name() != n.Name() {
			return false
		}
		ma, na := m.Attributes(), n.Attributes()
		if len(ma) != len(na) {
			return false
		}
		sortAttrs := func(as []NodeRef) []NodeRef {
			out := make([]NodeRef, len(as))
			copy(out, as)
			sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
			return out
		}
		ma, na = sortAttrs(ma), sortAttrs(na)
		for i := range ma {
			if ma[i].Name() != na[i].Name() || ma[i].Value() != na[i].Value() {
				return false
			}
		}
		fallthrough
	case DocumentNode:
		mc := comparableChildren(m)
		nc := comparableChildren(n)
		if len(mc) != len(nc) {
			return false
		}
		for i := range mc {
			if !deepEqualNodes(mc[i], nc[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// comparableChildren filters out comments and PIs, which fn:deep-equal
// ignores in element/document content.
func comparableChildren(n NodeRef) []NodeRef {
	var out []NodeRef
	for _, c := range n.Children() {
		if k := c.Kind(); k == CommentNode || k == PINode {
			continue
		}
		out = append(out, c)
	}
	return out
}
