// Package algebra implements the Relational XQuery substrate of the paper
// (Section 4): the Table 1 operator dialect over iter|pos|item relations, a
// loop-lifting compiler from the XQuery AST (package compile is folded in
// here as compile.go), a relational executor with the fixpoint operators µ
// and µ∆ (exec.go), and the algebraic distributivity check that pushes ∪ up
// through the recursion body's plan (distcheck.go, Figures 7–9).
package algebra

import (
	"fmt"
	"sync/atomic"

	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// OpKind enumerates the plan operators (Table 1 plus the macros ⋉/attach
// the compiler emits; macros expand to π/⋈ combinations and inherit their
// push behaviour).
type OpKind uint8

// Plan operators.
const (
	OpLit        OpKind = iota // literal table (also encodes the loop relation)
	OpDoc                      // document root leaf (fn:doc)
	OpRecBase                  // recursion variable placeholder inside a fixpoint body
	OpProject                  // π: project/rename
	OpAttach                   // attach a constant column (π macro)
	OpSelect                   // σ: keep rows whose column holds boolean true
	OpJoin                     // ⋈: theta join (equi fast path)
	OpSemiJoin                 // ⋉: keep left rows with a match (π∘⋈ macro)
	OpAntiJoin                 // ▷: keep left rows without a match (difference macro)
	OpCross                    // ×
	OpDistinct                 // δ: duplicate elimination over the full row
	OpUnion                    // ∪: bag union (schema aligned by name)
	OpDiff                     // \: bag difference (EXCEPT ALL)
	OpGroupCount               // count_out/group: grouped row count
	OpNumOp                    // ⊚: row-wise arithmetic/comparison/EBV operator
	OpRowTag                   // #: unique row tagging
	OpRowNum                   // ϱ: ordered row numbering (per partition)
	OpStep                     // XPath step join (axis::test), staircase-style
	OpIDLookup                 // fn:id lookup join against the document ID index
	OpCtor                     // ε/τ…: node constructor (element/attribute/text)
	OpMu                       // µ / µ∆: inflationary fixed point
	OpRecDelta                 // ∆: per-round delta of a recursion base (optimizer-introduced)
)

var opNames = map[OpKind]string{
	OpLit: "lit", OpDoc: "doc", OpRecBase: "recbase", OpProject: "project",
	OpAttach: "attach", OpSelect: "select", OpJoin: "join", OpSemiJoin: "semijoin",
	OpAntiJoin: "antijoin", OpCross: "cross", OpDistinct: "distinct", OpUnion: "union",
	OpDiff: "diff", OpGroupCount: "count", OpNumOp: "numop", OpRowTag: "rowtag",
	OpRowNum: "rownum", OpStep: "step", OpIDLookup: "id", OpCtor: "ctor", OpMu: "mu",
	OpRecDelta: "recdelta",
}

// String names the operator.
func (k OpKind) String() string { return opNames[k] }

// NumKind enumerates the row-wise ⊚ operators.
type NumKind uint8

// Row-wise operators. Comparison kinds use general-comparison promotion on
// the item pair.
const (
	NumAdd NumKind = iota
	NumSub
	NumMul
	NumDiv
	NumIDiv
	NumMod
	NumNeg
	NumEq
	NumNe
	NumLt
	NumLe
	NumGt
	NumGe
	NumAnd
	NumOr
	NumNot
	NumTruthy   // EBV of a single item
	NumAtomize  // fn:data on one item
	NumStringOf // fn:string on one item
	NumNumberOf // fn:number on one item
	NumNameOf   // fn:name on one node
	NumValCmpEq // value comparison (strict, no existential fill) — same as general on single items
	NumRootOf   // document root of a node
	NumIs       // node identity
	NumPrecedes // <<
	NumFollows  // >>
)

var numNames = map[NumKind]string{
	NumAdd: "+", NumSub: "-", NumMul: "*", NumDiv: "div", NumIDiv: "idiv",
	NumMod: "mod", NumNeg: "neg", NumEq: "=", NumNe: "!=", NumLt: "<",
	NumLe: "<=", NumGt: ">", NumGe: ">=", NumAnd: "and", NumOr: "or",
	NumNot: "not", NumTruthy: "ebv", NumAtomize: "data", NumStringOf: "string",
	NumNumberOf: "number", NumNameOf: "name", NumValCmpEq: "eq",
	NumRootOf: "root", NumIs: "is", NumPrecedes: "<<", NumFollows: ">>",
}

// String names the ⊚ operator.
func (n NumKind) String() string { return numNames[n] }

// JoinPred is one join predicate column pair.
type JoinPred struct {
	L, R string
	Cmp  NumKind // NumEq for equi joins
}

// ProjPair renames In to Out (π's projection list).
type ProjPair struct{ Out, In string }

// CtorKind discriminates constructor operators.
type CtorKind uint8

// Constructor kinds.
const (
	CtorElem CtorKind = iota
	CtorAttr
	CtorText
)

// Node is one plan operator node. Plans are DAGs: nodes may be shared.
// The struct is a tagged union: only the fields of the node's OpKind are
// meaningful.
type Node struct {
	Op   OpKind
	Kids []*Node

	// OpLit
	LitCols []string
	Rows    [][]xdm.Item
	// OpDoc
	URI string
	// OpProject
	Proj []ProjPair
	// OpAttach
	Col string   // also: OpSelect condition column, OpGroupCount/OpRowTag/OpRowNum output column, OpNumOp output
	Val xdm.Item // OpAttach constant
	// OpJoin / OpSemiJoin / OpAntiJoin
	Preds []JoinPred
	// OpGroupCount / OpRowNum
	GroupCols []string
	SortCols  []string // OpRowNum order key columns
	// OpNumOp
	Num     NumKind
	NumArgs []string
	// OpStep
	Axis    ast.Axis
	Test    ast.NodeTest
	ItemCol string // input node column consumed by step/id lookup
	// ValEq/ValEqSet push a value-equality σ into the step: only matches
	// whose string value equals ValEq survive. Set by the optimizer when a
	// semijoin pred compares the step's atomized column against a string
	// constant (opt/indexrules.go has the soundness argument).
	ValEq    string
	ValEqSet bool
	// OpCtor
	Ctor     CtorKind
	CtorName string // static name ("" means Kids[1] provides per-iter names)
	// OpMu: Kids[0] = seed, Kids[1] = body (containing the OpRecBase leaf),
	// RecBase points at that leaf so the executor can rebind it.
	// OpRecDelta reuses RecBase to name the site whose per-round delta it
	// reads; the node is a leaf (the feed is bound by evalMu, not computed).
	Delta   bool
	RecBase *Node
	// Desc makes OpRowNum number in descending sort order (reverse axes).
	Desc bool

	// Template marks operators that belong to a plan template whose
	// distributivity was established once (Figure 7(b)): the ∪ push-up
	// takes a single big step across them. The compiler sets it on the
	// per-context-node positional machinery inside location steps.
	Template bool
	// Bookkeeping marks operators that only maintain sequence order or
	// duplicate-freedom (pos renumbering, ddo). Section 4.1 lets the
	// compiler strip these before the distributivity check; the check
	// treats them as transparent instead, which is equivalent.
	Bookkeeping bool

	// schema memoizes Schema(). Atomic because compiled plans are shared —
	// across parallel fixpoint workers and, via the plan cache, across
	// concurrent evaluations — and any of them may first-touch a node's
	// schema; racing computations produce identical column lists, so
	// last-store-wins publication is sound.
	schema atomic.Pointer[[]string]
}

// NewLit builds a literal table node.
func NewLit(cols []string, rows [][]xdm.Item) *Node {
	return &Node{Op: OpLit, LitCols: cols, Rows: rows}
}

// Schema returns (computing on first use) the node's output column list.
func (n *Node) Schema() []string {
	if s := n.schema.Load(); s != nil {
		return *s
	}
	var schema []string
	switch n.Op {
	case OpLit:
		schema = n.LitCols
	case OpDoc:
		schema = []string{"item"}
	case OpRecBase, OpRecDelta:
		schema = []string{"iter", "pos", "item"}
	case OpProject:
		cols := make([]string, len(n.Proj))
		for i, p := range n.Proj {
			cols[i] = p.Out
		}
		schema = cols
	case OpAttach:
		schema = append(append([]string{}, n.Kids[0].Schema()...), n.Col)
	case OpSelect, OpDistinct, OpSemiJoin, OpAntiJoin:
		schema = n.Kids[0].Schema()
	case OpJoin, OpCross:
		schema = append(append([]string{}, n.Kids[0].Schema()...), n.Kids[1].Schema()...)
	case OpUnion, OpDiff:
		schema = n.Kids[0].Schema()
	case OpGroupCount:
		schema = append(append([]string{}, n.GroupCols...), n.Col)
	case OpNumOp:
		schema = append(append([]string{}, n.Kids[0].Schema()...), n.Col)
	case OpRowTag, OpRowNum:
		schema = append(append([]string{}, n.Kids[0].Schema()...), n.Col)
	case OpStep, OpIDLookup:
		// The step join replaces ItemCol with the step results.
		schema = n.Kids[0].Schema()
	case OpCtor:
		schema = []string{"iter", "pos", "item"}
	case OpMu:
		schema = []string{"iter", "pos", "item"}
	default:
		panic(fmt.Sprintf("algebra: schema of unknown op %v", n.Op))
	}
	n.schema.Store(&schema)
	return schema
}

// HasCol reports whether the schema contains the column.
func (n *Node) HasCol(col string) bool {
	for _, c := range n.Schema() {
		if c == col {
			return true
		}
	}
	return false
}

// ContainsRecBase reports whether the sub-DAG under n reaches an OpRecBase
// (or optimizer-introduced OpRecDelta) leaf (memoized externally by the
// callers that need it in bulk).
func (n *Node) ContainsRecBase() bool {
	if n.Op == OpRecBase || n.Op == OpRecDelta {
		return true
	}
	for _, k := range n.Kids {
		if k.ContainsRecBase() {
			return true
		}
	}
	return false
}
