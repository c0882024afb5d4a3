// Package ast defines the abstract syntax of the LiXQuery-class XQuery
// subset used in this repository, including the paper's new syntactic form
// `with $x seeded by e_seed recurse e_rec` (the Fixpoint node). The shape of
// the AST deliberately mirrors the grammar the paper's Figure 5 inference
// rules are stated over: FLWOR clauses are desugared to nested For/Let,
// `where` to a conditional, and direct constructors to computed ones.
package ast

import "fmt"

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	exprNode()
}

// LitKind discriminates literal kinds.
type LitKind uint8

// Literal kinds.
const (
	LitInteger LitKind = iota
	LitDouble
	LitString
)

// Literal is an integer, double, or string literal. Decimal literals are
// folded into doubles (EXPERIMENTS.md, "Faithfulness notes").
type Literal struct {
	Kind  LitKind
	Str   string
	Int   int64
	Float float64
}

// VarRef references a variable $Name.
type VarRef struct{ Name string }

// ContextItem is the `.` expression.
type ContextItem struct{}

// RootExpr is the leading-`/` expression: the document node owning the
// context item.
type RootExpr struct{}

// Seq is the comma operator; an empty Items slice is the empty sequence ().
type Seq struct{ Items []Expr }

// For is one for-clause binding with its return body:
// for $Var [at $Pos] in In [order by ...] return Body.
// OrderBy, when present, sorts the binding tuples before Body evaluation
// (single-clause FLWORs only; see parser).
type For struct {
	Var     string
	Pos     string // position variable, "" if absent
	In      Expr
	Body    Expr
	OrderBy *OrderSpec
}

// OrderSpec is a single order-by key.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// Let is let $Var := Value return Body.
type Let struct {
	Var   string
	Value Expr
	Body  Expr
}

// Quantified is some/every $Var in In satisfies Cond.
type Quantified struct {
	Every bool
	Var   string
	In    Expr
	Cond  Expr
}

// If is if (Cond) then Then else Else.
type If struct {
	Cond, Then, Else Expr
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators in precedence groups.
const (
	OpOr BinOp = iota
	OpAnd
	// general comparisons
	OpGenEq
	OpGenNe
	OpGenLt
	OpGenLe
	OpGenGt
	OpGenGe
	// value comparisons
	OpValEq
	OpValNe
	OpValLt
	OpValLe
	OpValGt
	OpValGe
	// node comparisons
	OpIs
	OpPrecedes // <<
	OpFollows  // >>
	OpTo
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
	OpUnion
	OpIntersect
	OpExcept
)

var binOpNames = map[BinOp]string{
	OpOr: "or", OpAnd: "and",
	OpGenEq: "=", OpGenNe: "!=", OpGenLt: "<", OpGenLe: "<=", OpGenGt: ">", OpGenGe: ">=",
	OpValEq: "eq", OpValNe: "ne", OpValLt: "lt", OpValLe: "le", OpValGt: "gt", OpValGe: "ge",
	OpIs: "is", OpPrecedes: "<<", OpFollows: ">>",
	OpTo: "to", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div", OpIDiv: "idiv", OpMod: "mod",
	OpUnion: "union", OpIntersect: "intersect", OpExcept: "except",
}

// String returns the source spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether the operator is a general, value, or node
// comparison.
func (op BinOp) IsComparison() bool { return op >= OpGenEq && op <= OpFollows }

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Unary is unary minus (+ is dropped by the parser).
type Unary struct{ E Expr }

// Slash is the path operator e1/e2: evaluate L, and for each resulting node
// (in document order) evaluate R with that node as context; the combined
// result is returned in distinct document order.
type Slash struct{ L, R Expr }

// Axis enumerates the XPath axes.
type Axis uint8

// The 12 supported axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisAttribute
	AxisSelf
	AxisDescendantOrSelf
	AxisFollowingSibling
	AxisFollowing
	AxisParent
	AxisAncestor
	AxisPrecedingSibling
	AxisPreceding
	AxisAncestorOrSelf
)

var axisNames = map[Axis]string{
	AxisChild: "child", AxisDescendant: "descendant", AxisAttribute: "attribute",
	AxisSelf: "self", AxisDescendantOrSelf: "descendant-or-self",
	AxisFollowingSibling: "following-sibling", AxisFollowing: "following",
	AxisParent: "parent", AxisAncestor: "ancestor",
	AxisPrecedingSibling: "preceding-sibling", AxisPreceding: "preceding",
	AxisAncestorOrSelf: "ancestor-or-self",
}

// String returns the axis name.
func (a Axis) String() string { return axisNames[a] }

// Reverse reports whether the axis is a reverse axis.
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisPrecedingSibling, AxisPreceding, AxisAncestorOrSelf:
		return true
	}
	return false
}

// TestKind discriminates node tests.
type TestKind uint8

// Node test kinds. TestName matches elements (or attributes on the
// attribute axis) by name, with "*" as wildcard.
const (
	TestName TestKind = iota
	TestAnyKind
	TestText
	TestComment
	TestPI
	TestElement  // element() / element(name)
	TestAttr     // attribute() / attribute(name)
	TestDocument // document-node()
)

// NodeTest is a node test within an axis step.
type NodeTest struct {
	Kind TestKind
	Name string // name or "*" (TestName, TestElement, TestAttr); PI target
}

// String returns the source spelling of the test.
func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestAnyKind:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		if t.Name != "" {
			return fmt.Sprintf("processing-instruction(%s)", t.Name)
		}
		return "processing-instruction()"
	case TestElement:
		if t.Name != "" && t.Name != "*" {
			return fmt.Sprintf("element(%s)", t.Name)
		}
		return "element()"
	case TestAttr:
		if t.Name != "" && t.Name != "*" {
			return fmt.Sprintf("attribute(%s)", t.Name)
		}
		return "attribute()"
	case TestDocument:
		return "document-node()"
	}
	return "?"
}

// AxisStep is one axis step with predicates, evaluated relative to the
// context item: axis::test[p1][p2]…
type AxisStep struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

// Filter is a primary expression with predicates: E[p1][p2]…
type Filter struct {
	E     Expr
	Preds []Expr
}

// FuncCall calls a user-defined or built-in function. Built-in names are
// normalized without the fn: prefix; constructor casts keep the xs: prefix.
type FuncCall struct {
	Name string
	Args []Expr
}

// ElemCtor constructs an element. Exactly one of Name/NameExpr is set.
// Attrs come from direct-constructor syntax; Content is the concatenated
// content sequence.
type ElemCtor struct {
	Name     string
	NameExpr Expr
	Attrs    []*AttrCtor
	Content  []Expr
}

// AttrCtor constructs an attribute.
type AttrCtor struct {
	Name     string
	NameExpr Expr
	Content  []Expr
}

// TextCtor constructs a text node: text { Content }.
type TextCtor struct{ Content Expr }

// TypeSwitch is typeswitch (Operand) case [$v as] T return e … default
// [$v] return e.
type TypeSwitch struct {
	Operand    Expr
	Cases      []*TSCase
	DefaultVar string
	Default    Expr
}

// TSCase is one typeswitch case clause.
type TSCase struct {
	Var  string // "" if absent
	Type SeqType
	Body Expr
}

// Fixpoint is the paper's inflationary fixed point form:
// with $Var seeded by Seed recurse Body (Definition 2.1).
type Fixpoint struct {
	Var  string
	Seed Expr
	Body Expr
}

// Occurrence is a sequence-type occurrence indicator.
type Occurrence byte

// Occurrence indicators.
const (
	OccOne      Occurrence = 0
	OccOptional Occurrence = '?'
	OccStar     Occurrence = '*'
	OccPlus     Occurrence = '+'
	OccEmpty    Occurrence = 'e' // empty-sequence()
)

// ItemType discriminates sequence-type item tests.
type ItemType uint8

// Item types for sequence types.
const (
	ITItem ItemType = iota
	ITNode
	ITElement
	ITAttribute
	ITText
	ITComment
	ITPI
	ITDocument
	ITString
	ITInteger
	ITDouble
	ITBoolean
	ITUntyped
	ITAnyAtomic
)

// SeqType is a (simplified) XQuery sequence type.
type SeqType struct {
	Occ  Occurrence
	Item ItemType
	Name string // element(Name)/attribute(Name), "" or "*" otherwise
}

// String renders the sequence type.
func (t SeqType) String() string {
	if t.Occ == OccEmpty {
		return "empty-sequence()"
	}
	base := ""
	switch t.Item {
	case ITItem:
		base = "item()"
	case ITNode:
		base = "node()"
	case ITElement:
		if t.Name != "" && t.Name != "*" {
			base = "element(" + t.Name + ")"
		} else {
			base = "element()"
		}
	case ITAttribute:
		if t.Name != "" && t.Name != "*" {
			base = "attribute(" + t.Name + ")"
		} else {
			base = "attribute()"
		}
	case ITText:
		base = "text()"
	case ITComment:
		base = "comment()"
	case ITPI:
		base = "processing-instruction()"
	case ITDocument:
		base = "document-node()"
	case ITString:
		base = "xs:string"
	case ITInteger:
		base = "xs:integer"
	case ITDouble:
		base = "xs:double"
	case ITBoolean:
		base = "xs:boolean"
	case ITUntyped:
		base = "xs:untypedAtomic"
	case ITAnyAtomic:
		base = "xs:anyAtomicType"
	}
	if t.Occ != OccOne {
		return base + string(t.Occ)
	}
	return base
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *SeqType
}

// FuncDecl is a user-defined function declaration.
type FuncDecl struct {
	Name   string
	Params []Param
	Return *SeqType
	Body   Expr
}

// VarDecl is a prolog variable declaration.
type VarDecl struct {
	Name  string
	Value Expr
}

// Module is a parsed query: prolog declarations plus the body expression.
type Module struct {
	Funcs []*FuncDecl
	Vars  []*VarDecl
	Body  Expr
}

// Function lookup key: name#arity.
func (m *Module) Function(name string, arity int) *FuncDecl {
	for _, f := range m.Funcs {
		if f.Name == name && len(f.Params) == arity {
			return f
		}
	}
	return nil
}

func (*Literal) exprNode()     {}
func (*VarRef) exprNode()      {}
func (*ContextItem) exprNode() {}
func (*RootExpr) exprNode()    {}
func (*Seq) exprNode()         {}
func (*For) exprNode()         {}
func (*Let) exprNode()         {}
func (*Quantified) exprNode()  {}
func (*If) exprNode()          {}
func (*Binary) exprNode()      {}
func (*Unary) exprNode()       {}
func (*Slash) exprNode()       {}
func (*AxisStep) exprNode()    {}
func (*Filter) exprNode()      {}
func (*FuncCall) exprNode()    {}
func (*ElemCtor) exprNode()    {}
func (*AttrCtor) exprNode()    {}
func (*TextCtor) exprNode()    {}
func (*TypeSwitch) exprNode()  {}
func (*Fixpoint) exprNode()    {}
