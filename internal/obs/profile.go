package obs

import "sync"

// OpStats are the per-operator actuals EXPLAIN ANALYZE renders next to the
// optimizer's inferred properties.
type OpStats struct {
	// Calls counts evaluations of the operator (rec-dependent operators
	// inside a µ body evaluate once per round).
	Calls int64
	// RowsIn totals input rows (summed over the operator's children at each
	// call); RowsOut totals produced rows.
	RowsIn  int64
	RowsOut int64
	// SelfNs is the operator's own time, children excluded.
	SelfNs int64
	// Gathers counts column-vector gather values (rows × columns moved by
	// positional gathers); AllocBytes estimates the bytes the operator's
	// output tables hold.
	Gathers    int64
	AllocBytes int64
	// Sorted counts the rows a row-numbering operator ranked by a
	// comparison sort rather than by a scan of input already in rank order.
	Sorted int64
}

// PlanProfile accumulates OpStats keyed by plan node. The key type is
// opaque (`any`) because obs sits below the algebra package in the import
// graph: the executor passes its *Node pointers, the explain renderer maps
// them back. All methods are nil-receiver safe.
type PlanProfile struct {
	mu  sync.Mutex
	ops map[any]*OpStats
}

// NewPlanProfile builds an enabled profile.
func NewPlanProfile() *PlanProfile { return &PlanProfile{ops: map[any]*OpStats{}} }

// Op returns the mutable stats cell for a plan node, creating it on first
// use; nil on a nil profile. The executor mutates the cell directly from
// the single goroutine evaluating the plan, so per-field updates need no
// further locking.
func (p *PlanProfile) Op(key any) *OpStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	st := p.ops[key]
	if st == nil {
		st = &OpStats{}
		p.ops[key] = st
	}
	p.mu.Unlock()
	return st
}

// Stats returns a node's accumulated counters, if any were recorded.
func (p *PlanProfile) Stats(key any) (OpStats, bool) {
	if p == nil {
		return OpStats{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.ops[key]
	if !ok {
		return OpStats{}, false
	}
	return *st, true
}

// Len reports how many plan nodes recorded stats.
func (p *PlanProfile) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ops)
}
