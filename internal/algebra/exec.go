package algebra

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/xdm"
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

// MuRun instruments one µ/µ∆ operator site.
type MuRun struct {
	Delta      bool
	Executions int
	Stats      core.Stats
}

// ExecContext carries everything one plan execution needs.
type ExecContext struct {
	// Docs resolves fn:doc URIs.
	Docs func(uri string) (*xdm.Document, error)
	// MaxIterations bounds fixpoint rounds (0 = core.DefaultMaxIterations).
	MaxIterations int
	// Parallelism is the worker-pool width for the µ/µ∆ round internals —
	// step joins, join probes, and per-iteration absorption all shard row
	// ranges across it (0 = GOMAXPROCS, 1 = sequential). Output order is
	// chunk-deterministic: results are byte-identical at every setting.
	Parallelism int
	// NoIndex makes every step walk the arena instead of letting xdm.Step
	// probe the name index. Results are byte-identical either way — the
	// toggle exists for the difftest parity gate and the bench sweep.
	NoIndex bool
	// Ctx, when non-nil, cancels the execution between fixpoint rounds and
	// inside the sharded operators; the pool always drains before the
	// context's error is returned.
	Ctx context.Context
	// LoopDeps, when set (Plan.LoopDeps, filled by the optimizer), is the
	// precomputed loop-dependence property: the nodes whose subtree reaches
	// an OpRecBase leaf. The fixpoint driver scopes it to each µ body
	// instead of re-deriving the property with its own walk; nil (-O0)
	// falls back to recDependents.
	LoopDeps map[*Node]bool
	// Budget, when non-nil, bounds the execution: eval charges each freshly
	// computed operator table against the row budget and polls the deadline,
	// and evalMu adds per-round deadline/round checks plus feed and growth
	// charges. All check sites run on the driving goroutine at points whose
	// order does not depend on the worker count, so a truncation error is
	// byte-identical at every parallelism setting.
	Budget *xdm.Budget
	// Trace, when non-nil, records one span per fixpoint round at every µ
	// site; Prof, when non-nil, accumulates per-operator actuals. Both are
	// read-only instrumentation — the disabled path is a nil check.
	Trace *obs.Trace
	Prof  *obs.PlanProfile

	memo      map[*Node]*Table
	binding   map[*Node]*Table // OpRecBase → current feed
	deltaBind map[*Node]*Table // OpRecBase → current round's delta (OpRecDelta reads)
	muAgg     map[*Node]*MuRun
	muDeps    map[*Node]map[*Node]bool // µ node → rec-dependent body nodes
	muSite    map[*Node]int            // µ node → Trace site index
	docs      map[string]*xdm.Document
	segCache  map[segKey][]uint64 // per-query step segment memo (step.go)
	stepMu    sync.Mutex          // guards segCache when step joins shard
	// childNs threads descendant evaluation time through the profiled
	// recursion so each operator's SelfNs excludes its children; see
	// evalProfiled. Only the driving goroutine touches it.
	childNs int64
}

// workers is the normalized pool width.
func (ctx *ExecContext) workers() int { return par.Workers(ctx.Parallelism) }

// cancelled reports the context's error, if any.
func (ctx *ExecContext) cancelled() error { return par.CtxErr(ctx.Ctx) }

// parMinRows is the smallest per-chunk row count worth a goroutine in the
// sharded row-wise operators; below workers × this, they run sequentially.
const parMinRows = 512

// MuRuns returns the fixpoint instrumentation collected so far.
func (ctx *ExecContext) MuRuns() []MuRun {
	out := make([]MuRun, 0, len(ctx.muAgg))
	for _, r := range ctx.muAgg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stats.NodesFedBack > out[j].Stats.NodesFedBack })
	return out
}

func (ctx *ExecContext) init() {
	if ctx.memo == nil {
		ctx.memo = map[*Node]*Table{}
		ctx.binding = map[*Node]*Table{}
		ctx.deltaBind = map[*Node]*Table{}
		ctx.muAgg = map[*Node]*MuRun{}
		ctx.muDeps = map[*Node]map[*Node]bool{}
		ctx.muSite = map[*Node]int{}
		ctx.docs = map[string]*xdm.Document{}
		ctx.segCache = map[segKey][]uint64{}
	}
}

// Eval executes a plan DAG, memoizing shared sub-plans.
func Eval(root *Node, ctx *ExecContext) (*Table, error) {
	ctx.init()
	return ctx.eval(root)
}

func (ctx *ExecContext) eval(n *Node) (*Table, error) {
	if t, ok := ctx.memo[n]; ok {
		return t, nil
	}
	if ctx.Prof != nil {
		return ctx.evalProfiled(n)
	}
	t, err := ctx.evalOp(n)
	if err != nil {
		return nil, err
	}
	if n.Op != OpRecBase && n.Op != OpRecDelta {
		ctx.memo[n] = t
		// A memoized table was freshly materialized by this operator:
		// charge it. OpRecBase/OpRecDelta are exempt — they alias the current
		// fixpoint feeds, which evalMu charges once per round where built.
		if err := ctx.chargeTable(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// evalProfiled is eval's EXPLAIN ANALYZE twin: identical memoization and
// budget charging, plus per-operator actuals. Self time is derived with a
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
		} else if k.Op == OpRecDelta {
			if dt, ok := ctx.deltaBind[k.RecBase]; ok {
				st.RowsIn += int64(dt.Len())
			}
		}
	}
	st.RowsOut += int64(t.Len())
	if opGathers(n.Op) {
		st.Gathers += int64(t.Len()) * int64(len(t.cols))
	}
	st.AllocBytes += t.approxBytes()
	if n.Op != OpRecBase && n.Op != OpRecDelta {
		ctx.memo[n] = t
		if err := ctx.chargeTable(t); err != nil {
			return nil, err
		}
	}
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
// (interface header, 16 bytes) per row — the vector payload only, ignoring
// per-column headers.
func (t *Table) approxBytes() int64 {
	var b int64
	for _, c := range t.cols {
		if c.IsPacked() {
			b += 8 * int64(c.Len())
		} else {
			b += 16 * int64(c.Len())
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
	case OpRecDelta:
		t, ok := ctx.deltaBind[n.RecBase]
		if !ok {
			return nil, xdm.NewError(xdm.ErrIFP, "recursion delta referenced outside fixpoint")
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
		if len(n.GroupCols) != 1 {
			return nil, xdm.Errorf(xdm.ErrType, "algebra: grouped count supports one group column, got %d", len(n.GroupCols))
		}
		g := in.cols[in.Col(n.GroupCols[0])].reader()
		slot := map[ikey]int{}
		var reps []xdm.Item
		var counts []int64
		for r := 0; r < in.n; r++ {
			it := g.item(r)
			k := itemIKey(it)
			i, ok := slot[k]
			if !ok {
				i = len(reps)
				slot[k] = i
				reps = append(reps, it)
				counts = append(counts, 0)
			}
			counts[i]++
		}
		cvals := make([]xdm.Item, len(counts))
		for i, c := range counts {
			cvals[i] = xdm.NewInteger(c)
		}
		return NewColTable(n.Schema(), []*Column{columnFromItems(reps), genericColumn(cvals)}), nil
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

// distinctTable is δ over the full row. Single packed columns deduplicate
// on the stored identity words directly; general rows go through the
// rowSet scratch-row path.
func distinctTable(in *Table) *Table {
	var sel []int32
	if len(in.cols) == 1 && in.cols[0].IsPacked() {
		set := newRowSet(1)
		for i, k := range in.cols[0].packed {
			if set.insertPacked1(k) {
				sel = append(sel, int32(i))
			}
		}
		return in.gather(sel)
	}
	idx := make([]int, len(in.cols))
	readers := make([]reader, len(in.cols))
	for i, c := range in.cols {
		idx[i] = i
		readers[i] = c.reader()
	}
	set := newRowSet(len(idx))
	row := make([]xdm.Item, len(in.cols))
	for r := 0; r < in.n; r++ {
		for c := range readers {
			row[c] = readers[c].item(r)
		}
		if set.insert(row, idx) {
			sel = append(sel, int32(r))
		}
	}
	return in.gather(sel)
}

// diffTable is bag difference (EXCEPT ALL) with right columns aligned to
// the left schema by name; single packed columns count identity words
// directly.
func diffTable(l, r *Table) *Table {
	ridx := make([]int, len(l.Cols))
	for i, c := range l.Cols {
		ridx[i] = r.Col(c)
	}
	var sel []int32
	if len(l.cols) == 1 && l.cols[0].IsPacked() && r.cols[ridx[0]].IsPacked() {
		counts := newRowCounter(1)
		for _, k := range r.cols[ridx[0]].packed {
			counts.addPacked1(k, 1)
		}
		for i, k := range l.cols[0].packed {
			if counts.addPacked1(k, 0) > 0 {
				counts.addPacked1(k, -1)
				continue
			}
			sel = append(sel, int32(i))
		}
		return l.gather(sel)
	}
	counts := newRowCounter(len(l.Cols))
	rrow := make([]xdm.Item, len(ridx))
	rIdent := make([]int, len(ridx))
	rReaders := make([]reader, len(ridx))
	for i, c := range ridx {
		rIdent[i] = i
		rReaders[i] = r.cols[c].reader()
	}
	for i := 0; i < r.n; i++ {
		for c := range rReaders {
			rrow[c] = rReaders[c].item(i)
		}
		counts.add(rrow, rIdent, 1)
	}
	lReaders := make([]reader, len(l.cols))
	for i, c := range l.cols {
		lReaders[i] = c.reader()
	}
	lrow := make([]xdm.Item, len(l.cols))
	for i := 0; i < l.n; i++ {
		for c := range lReaders {
			lrow[c] = lReaders[c].item(i)
		}
		if counts.add(lrow, rIdent, 0) > 0 {
			counts.add(lrow, rIdent, -1)
			continue
		}
		sel = append(sel, int32(i))
	}
	return l.gather(sel)
}

// ---- keys and comparisons ---------------------------------------------

func nodeKey(n xdm.NodeRef) string {
	return "o\x00" + strconv.FormatInt(n.D.Stamp(), 36) + ":" + strconv.FormatInt(int64(n.Pre), 36)
}

// exactKey is the identity key used by δ, \ and grouping (no promotion).
func exactKey(it xdm.Item) string {
	switch it.Kind() {
	case xdm.KNode:
		return nodeKey(it.Node())
	case xdm.KString:
		return "s\x00" + it.StringValue()
	case xdm.KUntyped:
		return "u\x00" + it.StringValue()
	case xdm.KInteger:
		return "i\x00" + strconv.FormatInt(it.Int(), 10)
	case xdm.KDouble:
		return "d\x00" + strconv.FormatFloat(it.Float(), 'g', -1, 64)
	case xdm.KBoolean:
		if it.Bool() {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// compareItems orders items for ϱ and result extraction: nodes by document
// order, numerics numerically, everything else by string value; distinct
// classes order node < numeric < other (a total, deterministic order).
func compareItems(a, b xdm.Item) int {
	class := func(it xdm.Item) int {
		switch {
		case it.IsNode():
			return 0
		case it.IsNumeric():
			return 1
		default:
			return 2
		}
	}
	ca, cb := class(a), class(b)
	if ca != cb {
		return ca - cb
	}
	switch ca {
	case 0:
		an, bn := a.Node(), b.Node()
		if an.Same(bn) {
			return 0
		}
		if an.Before(bn) {
			return -1
		}
		return 1
	case 1:
		av, bv := a.NumberValue(), b.NumberValue()
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.StringValue(), b.StringValue())
	}
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
	// Build a hash index on the right side over the equality predicates;
	// the (build, probe) key-namespace scheme guarantees each matching
	// pair meets under exactly one key, so no match deduplication needed.
	rEqCols := make([]*Column, len(eq))
	lEqCols := make([]*Column, len(eq))
	for i, p := range eq {
		lEqCols[i] = l.cols[l.Col(p.L)]
		rEqCols[i] = r.cols[r.Col(p.R)]
	}
	// Node-identity keys bypass the promotion-namespace machinery: a node
	// only ever meets another node, under exactly its packed identity, so
	// both sides skip the per-row []ikey key-slice allocation — and when a
	// key column is packed, the stored word *is* the hash key, read straight
	// off the vector. Indexes are allocated for the arity actually joined on
	// (lookups on the unused nil maps are legal and always miss).
	var idx1 map[ikey][]int32
	var idx2 map[ikey2][]int32
	var nidx1 map[uint64][]int32
	var nidx2 map[[2]uint64][]int32
	switch len(eq) {
	case 1:
		idx1 = map[ikey][]int32{}
		nidx1 = map[uint64][]int32{}
	case 2:
		idx2 = map[ikey2][]int32{}
		nidx2 = map[[2]uint64][]int32{}
	}
	var ka, kb [2]ikey // stack scratch for promoted keys
	switch len(eq) {
	case 1:
		if rEqCols[0].IsPacked() {
			for ri, k := range rEqCols[0].packed {
				nidx1[k] = append(nidx1[k], int32(ri))
			}
			break
		}
		for ri, it := range rEqCols[0].items {
			if it.IsNode() {
				k := nodeKey64(it.Node())
				nidx1[k] = append(nidx1[k], int32(ri))
				continue
			}
			for _, k := range ka[:buildIKeys(&ka, it)] {
				idx1[k] = append(idx1[k], int32(ri))
			}
		}
	case 2:
		ra, rb := rEqCols[0].reader(), rEqCols[1].reader()
		for ri := 0; ri < r.n; ri++ {
			ia, ib := ra.item(ri), rb.item(ri)
			if ia.IsNode() && ib.IsNode() {
				k := [2]uint64{nodeKey64(ia.Node()), nodeKey64(ib.Node())}
				nidx2[k] = append(nidx2[k], int32(ri))
				continue
			}
			na, nb := buildIKeys(&ka, ia), buildIKeys(&kb, ib)
			for _, a := range ka[:na] {
				for _, b := range kb[:nb] {
					k := ikey2{a, b}
					idx2[k] = append(idx2[k], int32(ri))
				}
			}
		}
	}
	lThetaCols := make([]*Column, len(theta))
	rThetaCols := make([]*Column, len(theta))
	for i, p := range theta {
		lThetaCols[i] = l.cols[l.Col(p.L)]
		rThetaCols[i] = r.cols[r.Col(p.R)]
	}
	// probe matches one probe-side row range against the (now read-only)
	// hash indexes, producing matched index pairs — materialization is a
	// single gather after all chunks return. Sharded probing hands each
	// chunk its own readers and candidates scratch; per-chunk outputs
	// concatenate in chunk order, so the join's row order is identical at
	// every worker count.
	probe := func(lo, hi int) ([]int32, []int32) {
		var li, ri []int32
		var candidates []int32
		var pka, pkb [2]ikey // per-shard stack scratch for promoted keys
		lReaders := make([]reader, len(theta))
		rReaders := make([]reader, len(theta))
		for i := range theta {
			lReaders[i] = lThetaCols[i].reader()
			rReaders[i] = rThetaCols[i].reader()
		}
		var pa, pb reader
		if len(eq) >= 1 {
			pa = lEqCols[0].reader()
		}
		if len(eq) == 2 {
			pb = lEqCols[1].reader()
		}
		for row := lo; row < hi; row++ {
			matched := false
			candidates = candidates[:0]
			switch len(eq) {
			case 1:
				if lEqCols[0].IsPacked() {
					candidates = append(candidates, nidx1[lEqCols[0].packed[row]]...)
					break
				}
				if it := lEqCols[0].items[row]; it.IsNode() {
					candidates = append(candidates, nidx1[nodeKey64(it.Node())]...)
				} else {
					for _, k := range pka[:probeIKeys(&pka, it)] {
						candidates = append(candidates, idx1[k]...)
					}
				}
			case 2:
				ia, ib := pa.item(row), pb.item(row)
				if ia.IsNode() && ib.IsNode() {
					candidates = append(candidates, nidx2[[2]uint64{nodeKey64(ia.Node()), nodeKey64(ib.Node())}]...)
					break
				}
				na, nb := probeIKeys(&pka, ia), probeIKeys(&pkb, ib)
				for _, a := range pka[:na] {
					for _, b := range pkb[:nb] {
						candidates = append(candidates, idx2[ikey2{a, b}]...)
					}
				}
			default:
				for i := 0; i < r.n; i++ {
					candidates = append(candidates, int32(i))
				}
			}
			for _, cand := range candidates {
				ok := true
				for i := range theta {
					if !predHolds(lReaders[i].item(row), rReaders[i].item(int(cand)), theta[i].Cmp) {
						ok = false
						break
					}
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
		return li, ri
	}
	var li, ri []int32
	workers := ctx.workers()
	if workers <= 1 || l.n < 2*parMinRows {
		if err := ctx.cancelled(); err != nil {
			return nil, err
		}
		li, ri = probe(0, l.n)
	} else {
		chunks := par.Chunks(l.n, workers, parMinRows)
		louts := make([][]int32, len(chunks))
		routs := make([][]int32, len(chunks))
		if err := par.Run(ctx.Ctx, workers, len(chunks), func(i int) error {
			louts[i], routs[i] = probe(chunks[i][0], chunks[i][1])
			return nil
		}); err != nil {
			return nil, err
		}
		li = concatIndexChunks(louts)
		ri = concatIndexChunks(routs)
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

func numToCompOp(k NumKind) xdm.CompOp {
	switch k {
	case NumEq, NumValCmpEq:
		return xdm.OpEq
	case NumNe:
		return xdm.OpNe
	case NumLt:
		return xdm.OpLt
	case NumLe:
		return xdm.OpLe
	case NumGt:
		return xdm.OpGt
	case NumGe:
		return xdm.OpGe
	}
	return xdm.OpEq
}

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
// The relational engine glosses dynamic type errors (it computes over flat
// columns, not sequences): a failed comparison yields false, failed
// arithmetic yields NaN. DESIGN.md §7 records this deliberate divergence
// from the interpreter.
func applyNumOp(kind NumKind, args []xdm.Item) xdm.Item {
	arg := func(i int) xdm.Item { return args[i] }
	switch kind {
	case NumAdd, NumSub, NumMul, NumDiv, NumIDiv, NumMod:
		a := xdm.AtomizeItem(arg(0)).NumberValue()
		b := xdm.AtomizeItem(arg(1)).NumberValue()
		var f float64
		switch kind {
		case NumAdd:
			f = a + b
		case NumSub:
			f = a - b
		case NumMul:
			f = a * b
		case NumDiv:
			f = a / b
		case NumIDiv:
			return xdm.NewInteger(int64(a / b))
		case NumMod:
			f = a - b*float64(int64(a/b))
		}
		if f == float64(int64(f)) && arg(0).Kind() == xdm.KInteger && arg(1).Kind() == xdm.KInteger {
			return xdm.NewInteger(int64(f))
		}
		return xdm.NewDouble(f)
	case NumNeg:
		a := xdm.AtomizeItem(arg(0))
		if a.Kind() == xdm.KInteger {
			return xdm.NewInteger(-a.Int())
		}
		return xdm.NewDouble(-a.NumberValue())
	case NumEq, NumNe, NumLt, NumLe, NumGt, NumGe, NumValCmpEq:
		ok, err := xdm.GeneralCompareItems(arg(0), arg(1), numToCompOp(kind))
		return xdm.NewBoolean(err == nil && ok)
	case NumAnd:
		return xdm.NewBoolean(truthy(arg(0)) && truthy(arg(1)))
	case NumOr:
		return xdm.NewBoolean(truthy(arg(0)) || truthy(arg(1)))
	case NumNot:
		return xdm.NewBoolean(!truthy(arg(0)))
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

func truthy(it xdm.Item) bool {
	b, err := xdm.EBV(xdm.Singleton(it))
	return err == nil && b
}

func (ctx *ExecContext) evalRowNum(n *Node) (*Table, error) {
	in, err := ctx.kid(n, 0)
	if err != nil {
		return nil, err
	}
	// Materialize the sort and group key columns once: the sort makes
	// O(n log n) random accesses, which packed columns answer fastest from
	// a flat item slice.
	gvals := make([][]xdm.Item, len(n.GroupCols))
	for i, c := range n.GroupCols {
		gvals[i] = materialize(in.cols[in.Col(c)])
	}
	svals := make([][]xdm.Item, len(n.SortCols))
	for i, c := range n.SortCols {
		svals[i] = materialize(in.cols[in.Col(c)])
	}
	order := make([]int, in.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		for _, s := range svals {
			if c := compareItems(s[order[a]], s[order[b]]); c != 0 {
				if n.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	ranks := make([]int64, in.n)
	switch len(gvals) {
	case 0:
		var c int64
		for _, ri := range order {
			c++
			ranks[ri] = c
		}
	default:
		if len(gvals) > 2 {
			return nil, xdm.Errorf(xdm.ErrType, "algebra: row numbering supports at most two partition columns")
		}
		counters := newRowCounter(len(gvals))
		gidx := make([]int, len(gvals))
		for i := range gidx {
			gidx[i] = i
		}
		grow := make([]xdm.Item, len(gvals))
		for _, ri := range order {
			for c := range gvals {
				grow[c] = gvals[c][ri]
			}
			ranks[ri] = int64(counters.add(grow, gidx, 1))
		}
	}
	rvals := make([]xdm.Item, in.n)
	for i, rk := range ranks {
		rvals[i] = xdm.NewInteger(rk)
	}
	return NewColTable(n.Schema(), append(aliasCols(in), genericColumn(rvals))), nil
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

// concatIndexChunks flattens per-chunk index vectors in chunk order.
func concatIndexChunks(outs [][]int32) []int32 {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	idx := make([]int32, 0, total)
	for _, o := range outs {
		idx = append(idx, o...)
	}
	return idx
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
