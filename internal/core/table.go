package core

import "repro/internal/xdm"

// Tabling is what one execution of a Tabled site does with the site's
// table. Only the engine knows whether e({n}) still holds — the body's
// other inputs must be unchanged — so it chooses per execution.
type Tabling uint8

// Table uses.
const (
	Untabled   Tabling = iota // Step evaluates every feed whole
	FreshTable                // answer from a table started afresh
	ReuseTable                // answer from the table the site's last fresh start made
)

// table maps fed nodes by xdm.NodeWord to slots, slot s answering
// nodes[starts[s]:starts[s+1]]; e(∅) takes a slot of its own, empty.
type table struct {
	slot   map[uint64]int32
	starts []int32
	nodes  []xdm.NodeRef
	empty  int32 // e(∅)'s slot, or -1
	busy   bool  // an execution holds the table
	batch  xdm.Family
	fed    []int32       // the round's fed nodes' slots
	ask    []xdm.NodeRef // the round's misses
}

// open hands the execution its table. A table serves one execution at a
// time, so a fresh start, or a reuse while an outer execution of the site
// holds the table, never clears what an outer execution holds. An error
// ends the evaluation, so a failed execution's half-made table is never
// read again.
func (x Exec) open() *table {
	t := x.kept.table
	if t == nil || t.busy {
		t = &table{slot: map[uint64]int32{}}
		x.kept.table = t
	} else if x.Table == ReuseTable {
		t.busy = true
		return t
	}
	clear(t.slot)
	t.starts, t.nodes, t.empty, t.busy = append(t.starts[:0], 0), t.nodes[:0], -1, true
	return t
}

func (t *table) answer(s int32) []xdm.NodeRef { return t.nodes[t.starts[s]:t.starts[s+1]] }

// step is the body's answer to feed. With a table, the fed nodes the table
// lacks go to Answer in one call, each once whichever iterations bring it,
// and each new entry is charged to the row budget; the batch is every fed
// node's entry in its iteration, plus e(∅), in the first round only, for
// each iteration seeded empty.
func (e *execution) step(feed *xdm.Family) (*xdm.Family, error) {
	t := e.tab
	if t == nil {
		return e.body.Step(feed)
	}
	fed, ask := t.fed[:0], t.ask[:0]
	for id := range feed.Iters() {
		for _, n := range feed.Nodes(id) {
			s, ok := t.slot[xdm.NodeWord(n)]
			if !ok {
				s = int32(len(t.starts) - 1 + len(ask))
				t.slot[xdm.NodeWord(n)] = s
				ask = append(ask, n)
			}
			fed = append(fed, s)
		}
	}
	misses, empty := len(ask), e.EmptySeeded
	if e.EmptySeeded = nil; len(empty) > 0 && t.empty < 0 {
		t.empty = int32(len(t.starts) - 1 + len(ask))
		ask = append(ask, xdm.NodeRef{})
	}
	t.fed, t.ask = fed, ask
	if len(ask) > 0 {
		answers, err := e.body.(Answerer).Answer(ask)
		if err != nil {
			return nil, err
		}
		for i := range ask {
			nodes := answers.Nodes(int32(i))
			if err := e.cfg.Budget.ChargeRows(len(nodes)); err != nil {
				return nil, err
			}
			t.nodes = append(t.nodes, nodes...)
			t.starts = append(t.starts, int32(len(t.nodes)))
		}
	}
	e.site.TableHits += int64(len(fed) - misses)
	t.batch.Reset()
	for id := range feed.Iters() {
		for range feed.Nodes(id) {
			t.batch.AddNodes(id, t.answer(fed[0]))
			fed = fed[1:]
		}
	}
	for _, id := range empty {
		t.batch.AddNodes(id, t.answer(t.empty))
	}
	return &t.batch, nil
}
