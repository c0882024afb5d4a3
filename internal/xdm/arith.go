package xdm

import (
	"math"

	"repro/internal/xq/ast"
)

// ToNumeric casts one arithmetic operand to xs:integer or xs:double: a node
// atomizes first, untyped content is whitespace-trimmed and cast to
// xs:double (FORG0001 when it is not a number), and every other kind is a
// type error (XPTY0004).
func ToNumeric(it Item) (Item, error) {
	it = AtomizeItem(it)
	switch it.kind {
	case KInteger, KDouble:
		return it, nil
	case KUntyped:
		f, err := ParseDouble(trimWS(it.str))
		if err != nil {
			return Item{}, NewError(ErrCast, "cannot cast to xs:double: "+it.str)
		}
		return NewDouble(f), nil
	}
	return Item{}, NewError(ErrType, "arithmetic over "+it.kind.String())
}

// Arith applies one arithmetic operator (ast.OpAdd … ast.OpMod) to two
// operands cast by ToNumeric — the one definition of XQuery arithmetic both
// engines call. Two integers stay exact in int64: + − × idiv and mod raise
// FOAR0002 on overflow, and div, idiv and mod by zero raise FOAR0001.
// div over integers yields xs:double, since this subset folds xs:decimal
// into xs:double. Any double operand makes the operation IEEE double
// arithmetic, where only idiv can fail: by zero (FOAR0001), or with a NaN,
// infinite or out-of-range quotient (FOAR0002).
func Arith(op ast.BinOp, x, y Item) (Item, error) {
	x, err := ToNumeric(x)
	if err != nil {
		return Item{}, err
	}
	if y, err = ToNumeric(y); err != nil {
		return Item{}, err
	}
	if x.kind == KInteger && y.kind == KInteger {
		return intArith(op, x.i, y.i)
	}
	a, b := x.NumberValue(), y.NumberValue()
	switch op {
	case ast.OpAdd:
		return NewDouble(a + b), nil
	case ast.OpSub:
		return NewDouble(a - b), nil
	case ast.OpMul:
		return NewDouble(a * b), nil
	case ast.OpDiv:
		return NewDouble(a / b), nil
	case ast.OpMod:
		return NewDouble(math.Mod(a, b)), nil
	case ast.OpIDiv:
		if b == 0 {
			return Item{}, NewError(ErrDivZero, "integer division by zero")
		}
		q := math.Trunc(a / b)
		if q != q || q < -1<<63 || q >= 1<<63 {
			return Item{}, NewError(ErrOverflow, "integer division result out of range")
		}
		return NewInteger(int64(q)), nil
	}
	return Item{}, Errorf(ErrType, "unhandled arithmetic %s", op)
}

func intArith(op ast.BinOp, a, b int64) (Item, error) {
	var r int64
	overflow := false
	switch op {
	case ast.OpAdd:
		r = a + b
		overflow = (r^a)&(r^b) < 0
	case ast.OpSub:
		r = a - b
		overflow = (a^b)&(a^r) < 0
	case ast.OpMul:
		r = a * b
		overflow = a != 0 && (r/a != b || a == -1 && b == math.MinInt64)
	case ast.OpDiv, ast.OpIDiv, ast.OpMod:
		if b == 0 {
			return Item{}, NewError(ErrDivZero, "division by zero")
		}
		switch op {
		case ast.OpDiv:
			return NewDouble(float64(a) / float64(b)), nil
		case ast.OpIDiv:
			r = a / b
			overflow = a == math.MinInt64 && b == -1
		default:
			r = a % b
		}
	default:
		return Item{}, Errorf(ErrType, "unhandled arithmetic %s", op)
	}
	if overflow {
		return Item{}, Errorf(ErrOverflow, "integer overflow in %d %s %d", a, op, b)
	}
	return NewInteger(r), nil
}

// Negate is unary minus over one operand cast by ToNumeric; negating the
// least xs:integer overflows (FOAR0002).
func Negate(x Item) (Item, error) {
	x, err := ToNumeric(x)
	if err != nil {
		return Item{}, err
	}
	if x.kind == KDouble {
		return NewDouble(-x.f), nil
	}
	if x.i == math.MinInt64 {
		return Item{}, Errorf(ErrOverflow, "integer overflow in -(%d)", x.i)
	}
	return NewInteger(-x.i), nil
}
