package xdm

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/xq/ast"
)

// The value kernel (Arith, CompareOrder, KeyOf, EqKeys) is checked here
// against oracles that share none of its code: math/big for arithmetic and
// numeric order, a direct case analysis for identity, and
// GeneralCompareItems for the join keys — all over one edge corpus.

// edgeCorpus returns integers around ±2⁵³ and the int64 limits; NaN, ±0,
// ±INF and doubles near the integer edges; numeric, space-padded and
// non-numeric untyped values; strings; booleans; and nodes of two
// documents, whose string values collide with the atomic values.
func edgeCorpus(t testing.TB) []Item {
	const p53 = int64(1) << 53
	var out []Item
	for _, i := range []int64{0, 1, -1, 2, 5, p53 - 1, p53, p53 + 1, -p53 + 1, -p53, -p53 - 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1} {
		out = append(out, NewInteger(i))
	}
	for _, f := range []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1, 5, 1.5, -1.5, 0.1, float64(p53), float64(p53) + 2, 0x1p63, -0x1p63} {
		out = append(out, NewDouble(f))
	}
	for _, s := range []string{"5", " 5 ", "\t5\n", "1.5", "NaN", "INF", "abc", "", "true",
		"9007199254740993", " 9007199254740992"} {
		out = append(out, NewUntyped(s), NewString(s))
	}
	out = append(out, NewBoolean(true), NewBoolean(false))
	for _, uri := range []string{"a.xml", "b.xml"} {
		b := NewBuilder(uri)
		b.StartElement("r")
		b.Attribute("n", "5")
		b.StartElement("x")
		b.Text("abc")
		b.EndElement()
		b.StartElement("y")
		b.Text(" 9007199254740993")
		b.EndElement()
		b.EndElement()
		d := b.Done()
		for pre := int32(0); pre < int32(d.Len()); pre++ {
			out = append(out, NewNode(NodeRef{d, pre}))
		}
	}
	return out
}

// identical is the oracle for KeyOf: the same node, or the same kind and
// value, with every NaN one value and −0 equal to +0.
func identical(a, b Item) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KNode:
		return a.node.Same(b.node)
	case KInteger:
		return a.i == b.i
	case KDouble:
		return a.f == b.f || a.f != a.f && b.f != b.f
	case KBoolean:
		return a.b == b.b
	}
	return a.str == b.str
}

func TestKeyOfIsIdentity(t *testing.T) {
	corpus := edgeCorpus(t)
	for _, a := range corpus {
		for _, b := range corpus {
			if got, want := KeyOf(a) == KeyOf(b), identical(a, b); got != want {
				t.Errorf("KeyOf(%v) == KeyOf(%v) is %v, want %v", a, b, got, want)
			}
			if got, want := KeyOf(a).String() == KeyOf(b).String(), identical(a, b); got != want {
				t.Errorf("key strings of %v and %v: equal = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestEqKeysMeetExactlyOnGeneralEquality: a build key and a probe key meet
// at most once, and exactly when GeneralCompareItems(=) holds — except that
// a pair with an inexact key may meet and then be refused by the confirming
// comparison.
func TestEqKeysMeetExactlyOnGeneralEquality(t *testing.T) {
	corpus := edgeCorpus(t)
	var bk, pk [2]Key
	for _, a := range corpus {
		nb, bexact := EqKeys(&bk, a, false)
		if wantExact := a.kind != KInteger || float64(a.i) != 0x1p63 && int64(float64(a.i)) == a.i; bexact != wantExact {
			t.Errorf("EqKeys(%v) exact = %v", a, bexact)
		}
		for _, b := range corpus {
			np, pexact := EqKeys(&pk, b, true)
			meets := 0
			for _, x := range bk[:nb] {
				for _, y := range pk[:np] {
					if x == y {
						meets++
					}
				}
			}
			eq, err := GeneralCompareItems(a, b, OpEq)
			eq = eq && err == nil
			switch {
			case meets > 1:
				t.Errorf("build %v and probe %v meet %d times", a, b, meets)
			case eq && meets == 0:
				t.Errorf("build %v and probe %v are equal but their keys never meet", a, b)
			case !eq && meets > 0 && bexact && pexact:
				t.Errorf("build %v and probe %v meet on exact keys but are not equal", a, b)
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// numericOracle compares two non-NaN numerics exactly with math/big.
func numericOracle(a, b Item) int {
	big := func(it Item) *big.Float {
		if it.kind == KInteger {
			return new(big.Float).SetInt64(it.i)
		}
		return new(big.Float).SetFloat64(it.f)
	}
	return big(a).Cmp(big(b))
}

func TestCompareOrderIsTotal(t *testing.T) {
	corpus := edgeCorpus(t)
	isNaN := func(it Item) bool { return it.kind == KDouble && it.f != it.f }
	for _, a := range corpus {
		if CompareOrder(a, a) != 0 {
			t.Errorf("CompareOrder(%v, %v) != 0", a, a)
		}
		for _, b := range corpus {
			ab := CompareOrder(a, b)
			if ab != sign(ab) || ab != -CompareOrder(b, a) {
				t.Errorf("CompareOrder(%v, %v) = %d but (%v, %v) = %d", a, b, ab, b, a, CompareOrder(b, a))
			}
			switch {
			case a.IsNumeric() && b.IsNumeric() && !isNaN(a) && !isNaN(b):
				if want := numericOracle(a, b); ab != want {
					t.Errorf("CompareOrder(%v, %v) = %d, math/big says %d", a, b, ab, want)
				}
			case isNaN(a) && b.IsNumeric() && !isNaN(b) && ab != -1:
				t.Errorf("NaN does not sort before %v", b)
			case a.IsNode() && !b.IsNode() && ab != -1, a.IsNumeric() && !b.IsNode() && !b.IsNumeric() && ab != -1:
				t.Errorf("%v does not sort before %v", a, b)
			}
			for _, c := range corpus {
				if ab <= 0 && CompareOrder(b, c) <= 0 && CompareOrder(a, c) > 0 {
					t.Fatalf("not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// TestArithMatchesBigOracle: integer + − × idiv mod and unary minus are
// exact or raise FOAR0002 when the true result leaves int64, division by
// zero raises FOAR0001, and div of integers within 2⁵³ is the correctly
// rounded quotient — all per math/big.
func TestArithMatchesBigOracle(t *testing.T) {
	var ints []int64
	for _, it := range edgeCorpus(t) {
		if it.kind == KInteger {
			ints = append(ints, it.i)
		}
	}
	ops := map[ast.BinOp]func(z, x, y *big.Int) *big.Int{
		ast.OpAdd: (*big.Int).Add, ast.OpSub: (*big.Int).Sub, ast.OpMul: (*big.Int).Mul,
		ast.OpIDiv: (*big.Int).Quo, ast.OpMod: (*big.Int).Rem,
	}
	check := func(what string, got Item, err error, want *big.Int) {
		t.Helper()
		if !want.IsInt64() {
			if CodeOf(err) != ErrOverflow {
				t.Errorf("%s = %v, %v; want FOAR0002 (true result %s)", what, got, err, want)
			}
			return
		}
		if err != nil || got.kind != KInteger || got.i != want.Int64() {
			t.Errorf("%s = %v, %v; want %s", what, got, err, want)
		}
	}
	for _, x := range ints {
		got, err := Negate(NewInteger(x))
		check("-"+NewInteger(x).String(), got, err, new(big.Int).Neg(big.NewInt(x)))
		for _, y := range ints {
			what := func(op ast.BinOp) string {
				return NewInteger(x).String() + " " + op.String() + " " + NewInteger(y).String()
			}
			for op, f := range ops {
				got, err := Arith(op, NewInteger(x), NewInteger(y))
				if y == 0 && (op == ast.OpIDiv || op == ast.OpMod) {
					if CodeOf(err) != ErrDivZero {
						t.Errorf("%s = %v, %v; want FOAR0001", what(op), got, err)
					}
					continue
				}
				check(what(op), got, err, f(new(big.Int), big.NewInt(x), big.NewInt(y)))
			}
			got, err := Arith(ast.OpDiv, NewInteger(x), NewInteger(y))
			switch {
			case y == 0:
				if CodeOf(err) != ErrDivZero {
					t.Errorf("%s = %v, %v; want FOAR0001", what(ast.OpDiv), got, err)
				}
			case -1<<53 <= x && x <= 1<<53 && -1<<53 <= y && y <= 1<<53:
				want, _ := new(big.Rat).SetFrac(big.NewInt(x), big.NewInt(y)).Float64()
				if err != nil || got.kind != KDouble || got.f != want {
					t.Errorf("%s = %v, %v; want %v", what(ast.OpDiv), got, err, want)
				}
			}
		}
	}
}

// TestArithCasts: operands cast through ToNumeric — nodes atomize, untyped
// content is trimmed and cast to xs:double, strings and booleans are type
// errors — and double idiv fails on NaN and infinite quotients.
func TestArithCasts(t *testing.T) {
	doc := NewLeafDoc(TextNode, "", " 5 ")
	for _, c := range []struct {
		x, y Item
		op   ast.BinOp
		want string
		code ErrCode
	}{
		{NewUntyped(" 5 "), NewInteger(1), ast.OpAdd, "6", ""},
		{NewNode(doc), NewInteger(2), ast.OpMul, "10", ""},
		{NewDouble(7.5), NewInteger(2), ast.OpIDiv, "3", ""},
		{NewDouble(-7.5), NewInteger(2), ast.OpMod, "-1.5", ""},
		{NewDouble(1), NewDouble(0), ast.OpDiv, "INF", ""},
		{NewDouble(1), NewDouble(0), ast.OpMod, "NaN", ""},
		{NewUntyped("abc"), NewInteger(1), ast.OpAdd, "", ErrCast},
		{NewString("3"), NewInteger(1), ast.OpAdd, "", ErrType},
		{NewBoolean(true), NewInteger(1), ast.OpAdd, "", ErrType},
		{NewDouble(1), NewDouble(0), ast.OpIDiv, "", ErrDivZero},
		{NewDouble(math.Inf(1)), NewInteger(1), ast.OpIDiv, "", ErrOverflow},
		{NewDouble(math.NaN()), NewInteger(1), ast.OpIDiv, "", ErrOverflow},
		{NewDouble(1e300), NewInteger(1), ast.OpIDiv, "", ErrOverflow},
	} {
		got, err := Arith(c.op, c.x, c.y)
		if CodeOf(err) != c.code || err == nil && got.StringValue() != c.want {
			t.Errorf("%v %s %v = %v, %v; want %q / %q", c.x, c.op, c.y, got, err, c.want, c.code)
		}
	}
	// fn:number agrees with the arithmetic cast wherever the cast succeeds.
	for _, it := range edgeCorpus(t) {
		if n, err := ToNumeric(it); err == nil {
			if f, g := it.NumberValue(), n.NumberValue(); f != g && (f == f || g == g) {
				t.Errorf("number(%v) = %v, but it casts to %v", it, f, g)
			}
		}
	}
	if got, err := Negate(NewUntyped(" 2 ")); err != nil || got.StringValue() != "-2" {
		t.Errorf("-untyped(\" 2 \") = %v, %v", got, err)
	}
	if _, err := Negate(NewString("2")); CodeOf(err) != ErrType {
		t.Errorf("-\"2\": error %v, want %s", err, ErrType)
	}
}
