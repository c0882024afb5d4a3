package algebra

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// Table is a materialized relation in columnar layout: one Column vector
// per attribute, positionally aligned with Cols. The executor treats
// tables as immutable once produced, which lets operators alias column
// vectors instead of copying them — projection and rename are pointer
// copies, and a gather of a packed node column is a flat uint64 copy.
type Table struct {
	Cols []string

	cols []*Column
	n    int
	idx  map[string]int
}

// NewTable builds a table from row-major data (literal plans, tests).
// Columns holding only nodes pack to (doc-stamp, pre) identity vectors.
func NewTable(cols []string, rows [][]xdm.Item) *Table {
	t := &Table{Cols: cols, cols: make([]*Column, len(cols)), n: len(rows)}
	for c := range cols {
		b := newColBuilder(len(rows))
		for _, row := range rows {
			b.append(row[c])
		}
		t.cols[c] = b.finish()
	}
	return t
}

// NewColTable builds a table directly from column vectors; all columns
// must have equal length (mismatches are executor bugs).
func NewColTable(names []string, cols []*Column) *Table {
	t := &Table{Cols: names, cols: cols}
	if len(cols) > 0 {
		t.n = cols[0].Len()
		for i, c := range cols {
			if c.Len() != t.n {
				panic(fmt.Sprintf("algebra: column %q length %d != %d", names[i], c.Len(), t.n))
			}
		}
	}
	return t
}

// Len returns the row count.
func (t *Table) Len() int { return t.n }

// ColAt returns column vector i.
func (t *Table) ColAt(i int) *Column { return t.cols[i] }

// At materializes the value at row r, column c.
func (t *Table) At(r, c int) xdm.Item { return t.cols[c].Item(r) }

// Row materializes row i. It exists for the few genuinely row-oriented
// consumers (constructor assembly, result serialization, tests); bulk
// operators read column vectors instead.
func (t *Table) Row(i int) []xdm.Item {
	row := make([]xdm.Item, len(t.cols))
	for c, col := range t.cols {
		row[c] = col.Item(i)
	}
	return row
}

// gather builds the table of t's rows at the given indices (every column
// gathered; packed columns stay packed).
func (t *Table) gather(idx []int32) *Table {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.gather(idx)
	}
	return &Table{Cols: t.Cols, cols: cols, n: len(idx)}
}

// Col returns the index of a column, panicking on unknown names (schema
// mismatches are compiler bugs, not user errors).
func (t *Table) Col(name string) int {
	if t.idx == nil {
		t.idx = make(map[string]int, len(t.Cols))
		for i, c := range t.Cols {
			t.idx[c] = i
		}
	}
	i, ok := t.idx[name]
	if !ok {
		panic(fmt.Sprintf("algebra: unknown column %q in %v", name, t.Cols))
	}
	return i
}

// colsNamed returns the column vectors of the named columns, in order.
func (t *Table) colsNamed(names []string) []*Column {
	cols := make([]*Column, len(names))
	for i, name := range names {
		cols[i] = t.cols[t.Col(name)]
	}
	return cols
}

// MuRun instruments one µ/µ∆ operator site: Delta marks µ∆, and core's
// record carries the site's own distributivity certificate and its Table 2
// counters aggregated over executions.
type MuRun struct {
	Delta bool
	core.Site
}

// ExecContext carries everything one plan execution needs.
type ExecContext struct {
	// Docs resolves fn:doc URIs.
	Docs func(uri string) (*xdm.Document, error)
	// NoIndex makes every step walk the arena instead of letting xdm.Step
	// probe the name index. Results are byte-identical either way — the
	// toggle exists for the difftest parity gate and the bench sweep.
	NoIndex bool
	// Ctx, when non-nil, cancels the execution: every fixpoint round, step
	// and join polls it before doing work. Eval replaces a nil Ctx with
	// context.Background().
	Ctx context.Context
	// Budget, when non-nil, bounds the execution: eval charges each freshly
	// computed operator table against the row budget and polls the deadline,
	// evalMu charges the feed tables it binds, and core's fixpoint loop adds
	// the per-round deadline and round checks plus feed and growth charges.
	Budget *xdm.Budget
	// Trace, when non-nil, records one span per fixpoint round at every µ
	// site; Prof, when non-nil, accumulates per-operator actuals. Both are
	// read-only instrumentation — the disabled path is a nil check.
	Trace *obs.Trace
	Prof  *obs.PlanProfile

	memo     map[*Node]*Table
	binding  map[*Node]*Table // OpRecBase → current feed or key loop
	sites    *core.Sites[*Node, *MuRun]
	muDeps   map[*Node]map[*Node]bool // µ node → rec-dependent body nodes
	docs     map[string]*xdm.Document
	segCache map[segKey][]uint64 // per-query step segment memo (step.go)
	index    xdm.IndexCounts     // the steps' index probes and fallbacks, flushed by Eval
	// childNs threads descendant evaluation time through the profiled
	// recursion so each operator's SelfNs excludes its children; see
	// evalProfiled.
	childNs int64
}

func (ctx *ExecContext) init() {
	if ctx.Ctx == nil {
		ctx.Ctx = context.Background()
	}
	if ctx.memo == nil {
		ctx.memo = map[*Node]*Table{}
		ctx.binding = map[*Node]*Table{}
		ctx.sites = core.NewSites[*Node, *MuRun](core.Config{Context: ctx.Ctx, Budget: ctx.Budget, Trace: ctx.Trace})
		ctx.muDeps = map[*Node]map[*Node]bool{}
		ctx.docs = map[string]*xdm.Document{}
		ctx.segCache = map[segKey][]uint64{}
	}
}

// Eval executes a plan DAG, memoizing shared sub-plans.
func Eval(root *Node, ctx *ExecContext) (*Table, error) {
	ctx.init()
	defer ctx.index.Flush()
	return ctx.eval(root)
}

func (ctx *ExecContext) eval(n *Node) (*Table, error) {
	if t, ok := ctx.memo[n]; ok {
		return t, nil
	}
	evalOp := ctx.evalOp
	if ctx.Prof != nil {
		evalOp = ctx.evalProfiled
	}
	t, err := evalOp(n)
	if err != nil {
		return nil, err
	}
	if n.Op != OpRecBase {
		ctx.memo[n] = t
		// A memoized table was freshly materialized by this operator:
		// charge it. OpRecBase is exempt — it aliases the current fixpoint
		// feed, which evalMu charges once per round where built.
		if err := ctx.chargeTable(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// evalProfiled is evalOp plus the EXPLAIN ANALYZE per-operator actuals,
// which eval selects when a profile is attached. Self time is derived with a
// child-time accumulator threaded through the recursion: each call zeroes
// ctx.childNs for its own children and, on return, adds its total into the
// parent's accumulator — so SelfNs is wall time minus descendant time, and
// the column sums to the plan's total. Memo hits return above without
// touching the accumulator: their (near-zero) lookup cost stays with the
// parent.
func (ctx *ExecContext) evalProfiled(n *Node) (*Table, error) {
	start := time.Now()
	outer := ctx.childNs
	ctx.childNs = 0
	t, err := ctx.evalOp(n)
	total := time.Since(start).Nanoseconds()
	self := total - ctx.childNs
	if self < 0 {
		self = 0
	}
	ctx.childNs = outer + total
	st := ctx.Prof.Op(n)
	st.Calls++
	st.SelfNs += self
	if err != nil {
		return nil, err
	}
	for _, k := range n.Kids {
		if kt, ok := ctx.memo[k]; ok {
			st.RowsIn += int64(kt.Len())
		} else if bt, ok := ctx.binding[k]; ok {
			st.RowsIn += int64(bt.Len())
		}
	}
	st.RowsOut += int64(t.Len())
	if opGathers(n.Op) {
		st.Gathers += int64(t.Len()) * int64(len(t.cols))
	}
	st.AllocBytes += t.approxBytes()
	return t, nil
}

// opGathers marks the operators whose output is assembled by positional
// column gathers (selection vectors, join index vectors, step expansion) —
// the Gathers counter estimates rows × columns moved through them.
func opGathers(op OpKind) bool {
	switch op {
	case OpSelect, OpJoin, OpSemiJoin, OpAntiJoin, OpDistinct, OpDiff,
		OpStep, OpIDLookup:
		return true
	}
	return false
}

// approxBytes estimates a table's resident bytes: a packed node column
// costs one 8-byte identity word per row, a generic column one xdm.Item
// struct per row — the vector payload only, ignoring per-column headers
// and the strings items point to.
func (t *Table) approxBytes() int64 {
	var b int64
	for _, c := range t.cols {
		if c.IsPacked() {
			b += 8 * int64(c.Len())
		} else {
			b += int64(unsafe.Sizeof(xdm.Item{})) * int64(c.Len())
		}
	}
	return b
}

// chargeTable accounts one freshly materialized table against the budget
// and polls the deadline — the executor's row-materialization check site.
func (ctx *ExecContext) chargeTable(t *Table) error {
	if ctx.Budget == nil {
		return nil
	}
	if err := ctx.Budget.CheckDeadline(); err != nil {
		return err
	}
	return ctx.Budget.ChargeRows(t.Len())
}

func (ctx *ExecContext) kid(n *Node, i int) (*Table, error) { return ctx.eval(n.Kids[i]) }

// aliasCols copies the column-pointer slice so an operator can swap or
// extend columns without touching the (shared, immutable) input table.
func aliasCols(t *Table) []*Column {
	out := make([]*Column, len(t.cols))
	copy(out, t.cols)
	return out
}

func (ctx *ExecContext) evalOp(n *Node) (*Table, error) {
	switch n.Op {
	case OpLit:
		return NewTable(n.LitCols, n.Rows), nil
	case OpDoc:
		d, ok := ctx.docs[n.URI]
		if !ok {
			if ctx.Docs == nil {
				return nil, xdm.Errorf(xdm.ErrDoc, "no document resolver (doc(%q))", n.URI)
			}
			var err error
			d, err = ctx.Docs(n.URI)
			if err != nil {
				return nil, err
			}
			ctx.docs[n.URI] = d
		}
		return NewColTable([]string{"item"}, []*Column{packedNodeColumn([]xdm.NodeRef{d.Root()})}), nil
	case OpRecBase:
		t, ok := ctx.binding[n]
		if !ok {
			return nil, xdm.NewError(xdm.ErrIFP, "recursion base referenced outside fixpoint")
		}
		return t, nil
	case OpProject:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		// π is column aliasing: rename and reorder are pointer copies.
		cols := make([]*Column, len(n.Proj))
		names := make([]string, len(n.Proj))
		for i, p := range n.Proj {
			cols[i] = in.cols[in.Col(p.In)]
			names[i] = p.Out
		}
		return &Table{Cols: names, cols: cols, n: in.n}, nil
	case OpAttach:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		return NewColTable(n.Schema(), append(aliasCols(in), repeatColumn(n.Val, in.n))), nil
	case OpSelect:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		cond := in.cols[in.Col(n.Col)]
		var sel []int32
		if !cond.IsPacked() { // a packed column holds nodes, never booleans
			for i, it := range cond.items {
				if it.Kind() == xdm.KBoolean && it.Bool() {
					sel = append(sel, int32(i))
				}
			}
		}
		return in.gather(sel), nil
	case OpJoin:
		return ctx.evalJoin(n, false, false)
	case OpSemiJoin:
		return ctx.evalJoin(n, true, false)
	case OpAntiJoin:
		return ctx.evalJoin(n, true, true)
	case OpCross:
		l, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		r, err := ctx.kid(n, 1)
		if err != nil {
			return nil, err
		}
		li := make([]int32, 0, l.n*r.n)
		ri := make([]int32, 0, l.n*r.n)
		for i := 0; i < l.n; i++ {
			for j := 0; j < r.n; j++ {
				li = append(li, int32(i))
				ri = append(ri, int32(j))
			}
		}
		return joinGather(n.Schema(), l, li, r, ri), nil
	case OpDistinct:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		return distinctTable(in), nil
	case OpUnion:
		l, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		r, err := ctx.kid(n, 1)
		if err != nil {
			return nil, err
		}
		cols := make([]*Column, len(l.Cols))
		for i, c := range l.Cols {
			cols[i] = concatColumns([]*Column{l.cols[i], r.cols[r.Col(c)]})
		}
		return &Table{Cols: l.Cols, cols: cols, n: l.n + r.n}, nil
	case OpDiff:
		l, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		r, err := ctx.kid(n, 1)
		if err != nil {
			return nil, err
		}
		return diffTable(l, r), nil
	case OpGroupCount:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		gs := make([]*Column, len(n.GroupCols), len(n.GroupCols)+1)
		for i, name := range n.GroupCols {
			gs[i] = in.cols[in.Col(name)]
		}
		keys := identityKeys(gs)[0]
		groups := newHashIndex(in.n, 0)
		counts := make([]int64, in.n) // per group, at its first row
		var firsts []int32            // each group's first row, in input order
		for r := 0; r < in.n; r++ {
			f := groups.claim(keys.at(r), int32(r))
			if f == int32(r) {
				firsts = append(firsts, f)
			}
			counts[f]++
		}
		cvals := make([]xdm.Item, len(firsts))
		for i, r := range firsts {
			cvals[i] = xdm.NewInteger(counts[r])
		}
		for i, g := range gs {
			gs[i] = g.gather(firsts)
		}
		return NewColTable(n.Schema(), append(gs, genericColumn(cvals))), nil
	case OpNumOp:
		return ctx.evalNumOp(n)
	case OpRowTag:
		in, err := ctx.kid(n, 0)
		if err != nil {
			return nil, err
		}
		return NewColTable(n.Schema(), append(aliasCols(in), intRangeColumn(in.n))), nil
	case OpRowNum:
		return ctx.evalRowNum(n)
	case OpStep:
		return ctx.evalStep(n)
	case OpIDLookup:
		return ctx.evalIDLookup(n)
	case OpCtor:
		return ctx.evalCtor(n)
	case OpMu:
		return ctx.evalMu(n)
	}
	return nil, xdm.Errorf(xdm.ErrType, "algebra: unknown operator %v", n.Op)
}

// joinGather materializes a join result: left columns gathered by li,
// right columns by ri, under the operator's output schema.
func joinGather(names []string, l *Table, li []int32, r *Table, ri []int32) *Table {
	cols := make([]*Column, 0, len(l.cols)+len(r.cols))
	for _, c := range l.cols {
		cols = append(cols, c.gather(li))
	}
	for _, c := range r.cols {
		cols = append(cols, c.gather(ri))
	}
	return &Table{Cols: names, cols: cols, n: len(li)}
}

// distinctTable is δ over the full row: the first row of each identity.
func distinctTable(in *Table) *Table {
	keys := identityKeys(in.cols)[0]
	seen := newHashIndex(in.n, 0)
	var sel []int32
	for r := 0; r < in.n; r++ {
		if seen.claim(keys.at(r), int32(r)) == int32(r) {
			sel = append(sel, int32(r))
		}
	}
	return in.gather(sel)
}

// diffTable is bag difference (EXCEPT ALL) with right columns aligned to
// the left schema by name: each right row cancels one left row of its
// identity.
func diffTable(l, r *Table) *Table {
	rcols := make([]*Column, len(l.Cols))
	for i, c := range l.Cols {
		rcols[i] = r.cols[r.Col(c)]
	}
	keys := identityKeys(l.cols, rcols)
	rows := newHashIndex(r.n, 0)
	counts := make([]int32, r.n) // right rows per identity, at its first row
	for i := 0; i < r.n; i++ {
		counts[rows.claim(keys[1].at(i), int32(i))]++
	}
	var sel []int32
	for i := 0; i < l.n; i++ {
		if f := rows.lookup(keys[0].at(i)); f != noEntry && counts[f] > 0 {
			counts[f]--
			continue
		}
		sel = append(sel, int32(i))
	}
	return l.gather(sel)
}

// ---- joins --------------------------------------------------------------

func (ctx *ExecContext) evalJoin(n *Node, semi, anti bool) (*Table, error) {
	l, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	r, err := ctx.kid(n, 1)
	if err != nil {
		return nil, err
	}
	var eq, theta []JoinPred
	for _, p := range n.Preds {
		if p.Cmp == NumEq {
			eq = append(eq, p)
		} else {
			theta = append(theta, p)
		}
	}
	if len(eq) > 2 {
		return nil, xdm.Errorf(xdm.ErrType, "algebra: joins support at most two equality predicates")
	}
	preds := append(eq, theta...)
	lr := make([]reader, len(preds))
	rr := make([]reader, len(preds))
	for i, p := range preds {
		lr[i] = l.cols[l.Col(p.L)].reader()
		rr[i] = r.cols[r.Col(p.R)].reader()
	}
	// Hash the right side on the equality predicates. joinKeys makes each
	// matching pair meet under exactly one key pair, so matches need no
	// deduplication — and need no compare unless a key is inexact (an
	// integer beyond 2⁵³): such pairs are confirmed with the equality
	// predicates themselves. A build row files under up to fan key pairs,
	// as entry row·fan+slot.
	lv, rv := make([]eqVec, len(eq)), make([]eqVec, len(eq))
	fan := 1
	for i, p := range eq {
		lv[i], rv[i] = joinKeys(l.cols[l.Col(p.L)], r.cols[r.Col(p.R)])
		fan *= rv[i].stride
	}
	var idx hashIndex
	var pairs [4][2]uint64 // stack scratch: one row's key pairs
	if len(eq) > 0 {
		idx = newHashIndex(r.n, r.n*fan)
		for row := r.n - 1; row >= 0; row-- {
			ps := keyPairs(pairs[:0], rv, row)
			for slot := len(ps) - 1; slot >= 0; slot-- {
				idx.push(ps[slot], int32(row*fan+slot))
			}
		}
	}
	// Probe the (now read-only) index row by row, walking the matched chains
	// merged in ascending build-row order, and collect matched index pairs;
	// materialization is a single gather afterwards.
	if err := ctx.Ctx.Err(); err != nil {
		return nil, err
	}
	var li, ri []int32
	for row := 0; row < l.n; row++ {
		var chains chainMerge
		exact := true
		if len(eq) > 0 {
			for _, p := range keyPairs(pairs[:0], lv, row) {
				chains.add(idx.lookup(p))
			}
			exact = !rowInexact(lv, row)
		}
		matched := false
		for c := int32(0); ; c++ {
			cand := c // no equality predicate: every build row is a candidate
			if len(eq) > 0 {
				e, ok := chains.pop(idx.next)
				if !ok {
					break
				}
				cand = e / int32(fan)
			} else if int(cand) >= r.n {
				break
			}
			first := len(eq) // keys decided the equality predicates …
			if !exact || rowInexact(rv, int(cand)) {
				first = 0 // … unless one of them was inexact
			}
			ok := true
			for i := first; i < len(preds) && ok; i++ {
				ok = predHolds(lr[i].item(row), rr[i].item(int(cand)), preds[i].Cmp)
			}
			if !ok {
				continue
			}
			matched = true
			if semi {
				break
			}
			li = append(li, int32(row))
			ri = append(ri, cand)
		}
		if semi && matched != anti {
			li = append(li, int32(row))
		}
	}
	if semi {
		return l.gather(li), nil
	}
	return joinGather(n.Schema(), l, li, r, ri), nil
}

// predHolds evaluates one theta-join predicate, covering node comparisons
// that general-comparison promotion does not.
func predHolds(a, b xdm.Item, k NumKind) bool {
	switch k {
	case NumIs, NumPrecedes, NumFollows:
		if !a.IsNode() || !b.IsNode() {
			return false
		}
		switch k {
		case NumIs:
			return a.Node().Same(b.Node())
		case NumPrecedes:
			return a.Node().Before(b.Node())
		default:
			return b.Node().Before(a.Node())
		}
	}
	ok, err := xdm.GeneralCompareItems(a, b, numToCompOp(k))
	return err == nil && ok
}

// numToCompOp maps NumEq … NumGe onto xdm.OpEq … xdm.OpGe (same order).
func numToCompOp(k NumKind) xdm.CompOp { return xdm.CompOp(k - NumEq) }

// ---- row-wise operators --------------------------------------------------

func (ctx *ExecContext) evalNumOp(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	readers := make([]reader, len(n.NumArgs))
	for i, a := range n.NumArgs {
		readers[i] = in.cols[in.Col(a)].reader()
	}
	out := newColBuilder(in.n)
	args := make([]xdm.Item, len(readers))
	for r := 0; r < in.n; r++ {
		for i := range readers {
			args[i] = readers[i].item(r)
		}
		out.append(applyNumOp(n.Num, args))
	}
	return NewColTable(n.Schema(), append(aliasCols(in), out.finish())), nil
}

// applyNumOp computes one ⊚ application over the fetched argument items.
// The relational engine glosses dynamic errors, because it computes over
// flat columns rather than sequences and compileIf evaluates both branches
// of a conditional over the whole loop: a failed comparison yields false,
// and any error of the xdm arithmetic kernel yields NaN. EXPERIMENTS.md
// ("Faithfulness notes", Engine divergences) lists every gloss.
func applyNumOp(kind NumKind, args []xdm.Item) xdm.Item {
	arg := func(i int) xdm.Item { return args[i] }
	switch kind {
	case NumAdd, NumSub, NumMul, NumDiv, NumIDiv, NumMod:
		return orNaN(xdm.Arith(ast.OpAdd+ast.BinOp(kind-NumAdd), arg(0), arg(1)))
	case NumNeg:
		return orNaN(xdm.Negate(arg(0)))
	case NumEq, NumNe, NumLt, NumLe, NumGt, NumGe:
		ok, err := xdm.GeneralCompareItems(arg(0), arg(1), numToCompOp(kind))
		return xdm.NewBoolean(err == nil && ok)
	case NumPredicate:
		if arg(0).IsNumeric() {
			ok, err := xdm.GeneralCompareItems(arg(0), arg(1), xdm.OpEq)
			return xdm.NewBoolean(err == nil && ok)
		}
		return xdm.NewBoolean(truthy(arg(0)))
	case NumTruthy:
		return xdm.NewBoolean(truthy(arg(0)))
	case NumAtomize:
		return xdm.AtomizeItem(arg(0))
	case NumStringOf:
		return xdm.NewString(arg(0).StringValue())
	case NumNumberOf:
		return xdm.NewDouble(xdm.AtomizeItem(arg(0)).NumberValue())
	case NumNameOf:
		if arg(0).IsNode() {
			return xdm.NewString(arg(0).Node().Name())
		}
		return xdm.NewString("")
	case NumRootOf:
		if arg(0).IsNode() {
			return xdm.NewNode(arg(0).Node().D.Root())
		}
		return arg(0)
	case NumIs, NumPrecedes, NumFollows:
		a, b := arg(0), arg(1)
		if !a.IsNode() || !b.IsNode() {
			return xdm.NewBoolean(false)
		}
		switch kind {
		case NumIs:
			return xdm.NewBoolean(a.Node().Same(b.Node()))
		case NumPrecedes:
			return xdm.NewBoolean(a.Node().Before(b.Node()))
		default:
			return xdm.NewBoolean(b.Node().Before(a.Node()))
		}
	}
	return xdm.Item{}
}

// orNaN is the relational gloss of a failed arithmetic: NaN.
func orNaN(it xdm.Item, err error) xdm.Item {
	if err != nil {
		return xdm.NewDouble(math.NaN())
	}
	return it
}

func truthy(it xdm.Item) bool {
	b, err := xdm.EBV(xdm.Singleton(it))
	return err == nil && b
}

// evalRowNum is ϱ: each row's rank within its partition (the rows sharing
// the GroupCols values) in SortCols order, ties in input order — the ranks
// a stable sort followed by a running count per partition gives. Step
// output mostly arrives in that order already (xdm.Step emits each context
// node's matches in axis order), so a linear run scan is tried first and
// the sort is the fallback; ANALYZE counts the rows that took it.
func (ctx *ExecContext) evalRowNum(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	parts, scols := identityKeys(in.colsNamed(n.GroupCols))[0], in.colsNamed(n.SortCols)
	ranks := make([]xdm.Item, in.n)
	if !runRanks(ranks, parts, scols, n.Desc) {
		sortRanks(ranks, parts, scols, n.Desc)
		if st := ctx.Prof.Op(n); st != nil {
			st.Sorted += int64(in.n)
		}
	}
	return NewColTable(n.Schema(), append(aliasCols(in), genericColumn(ranks))), nil
}

// runRanks ranks each row by its offset in its partition's run and reports
// whether those are the sort's ranks: they are when every partition is one
// contiguous run whose sort key never goes backwards, because a stable sort
// leaves such a partition in input order. One partition probe per run.
func runRanks(ranks []xdm.Item, parts rowKeys, scols []*Column, desc bool) bool {
	nruns := 0
	for r := range ranks {
		if r == 0 || parts.at(r-1) != parts.at(r) {
			nruns++
		}
	}
	runs := newHashIndex(nruns, 0)
	start := 0
	for r := range ranks {
		if r == 0 || parts.at(r-1) != parts.at(r) {
			if runs.claim(parts.at(r), int32(r)) != int32(r) {
				return false // the partition already had a run
			}
			start = r
		} else if compareRows(scols, desc, r-1, r) > 0 {
			return false
		}
		ranks[r] = xdm.NewInteger(int64(r - start + 1))
	}
	return true
}

// sortRanks is ϱ's general path: a stable sort of the row indices on the
// sort columns, then each row's running count within its partition.
func sortRanks(ranks []xdm.Item, parts rowKeys, scols []*Column, desc bool) {
	order := make([]int32, len(ranks))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return compareRows(scols, desc, int(a), int(b)) })
	seen := newHashIndex(len(ranks), 0)
	counts := make([]int64, len(ranks)) // per partition, at its first sorted row
	for _, r := range order {
		f := seen.claim(parts.at(int(r)), r)
		counts[f]++
		ranks[r] = xdm.NewInteger(counts[f])
	}
}

// compareRows orders rows a and b on the sort columns (reversed when desc).
func compareRows(scols []*Column, desc bool, a, b int) int {
	for _, c := range scols {
		if o := c.compareAt(a, b); o != 0 {
			if desc {
				return -o
			}
			return o
		}
	}
	return 0
}

// materialize flattens a column into an item slice (random-access reads).
func materialize(c *Column) []xdm.Item {
	if c.items != nil {
		return c.items
	}
	out := make([]xdm.Item, len(c.packed))
	r := c.reader()
	for i := range c.packed {
		out[i] = r.item(i)
	}
	return out
}

func (ctx *ExecContext) evalIDLookup(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	valIdx := in.Col(n.ItemCol)
	ctxCol := in.cols[in.Col(n.Col)]
	valReader := in.cols[valIdx].reader()
	var src []int32
	out := newColBuilder(in.n)
	for i := 0; i < in.n; i++ {
		if !ctxCol.IsNodeAt(i) {
			continue
		}
		doc := ctxCol.Node(i).D
		for _, tok := range strings.Fields(valReader.item(i).StringValue()) {
			if m, ok := doc.ByID(tok); ok {
				src = append(src, int32(i))
				out.appendNode(m)
			}
		}
	}
	cols := make([]*Column, len(in.cols))
	for i, col := range in.cols {
		if i == valIdx {
			cols[i] = out.finish()
			continue
		}
		cols[i] = col.gather(src)
	}
	return &Table{Cols: in.Cols, cols: cols, n: len(src)}, nil
}
