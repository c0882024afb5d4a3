package interp

import (
	"slices"

	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// Tabled µ. A body certified distributive satisfies e(X) = ∪_{x∈X} e({x})
// (§3), so one node's answer e({n}) is all any feed containing n needs of
// it. When the body's other inputs — its free variables besides $x and the
// focus — are the same in two executions of a site, e({n}) is the same in
// both, and a site run once per binding of an enclosing for (curriculum,
// the bidder network) need evaluate its body only once per distinct node
// over the whole evaluation. core's loop is unchanged: it still feeds
// every ∆ and counts it, so the Table 2 counters stay the logical ones;
// Site.TableHits counts the fed nodes a table answered.

// siteTable is the tabling state of one fixpoint site that runs Delta on a
// certified body; no other site has one.
type siteTable struct {
	free []string // the body's free variables other than the recursion variable
	hits *int64   // the site's core.Site.TableHits
	cur  *table   // the table of the site's last bindings
}

// table maps nodes to their body answers, valid under one set of bindings.
type table struct {
	cells   []*env // the env cell each free variable resolved to, or nil
	ctx     dynCtx
	hits    *int64
	answers map[xdm.NodeRef][]xdm.NodeRef
}

func newSiteTable(fp *ast.Fixpoint, hits *int64) *siteTable {
	var free []string
	for v := range ast.FreeVars(fp.Body) {
		if v != fp.Var {
			free = append(free, v)
		}
	}
	return &siteTable{free: free, hits: hits}
}

// enter returns the table one more execution of the site uses, or nil. A
// first execution under some bindings and focus evaluates the body
// set-at-a-time, as an untabled site does, and starts a fresh table for
// them; a later execution under the same ones gets that table. An
// execution keeps what enter gave it, so a re-entrant execution under
// other bindings cannot write into its table.
func (s *siteTable) enter(en *env, ctx dynCtx) *table {
	if t := s.cur; t != nil && t.ctx == ctx && t.boundIn(en, s.free) {
		return t
	}
	t := &table{cells: make([]*env, len(s.free)), ctx: ctx, hits: s.hits, answers: map[xdm.NodeRef][]xdm.NodeRef{}}
	for i, v := range s.free {
		t.cells[i] = en.cell(v)
	}
	s.cur = t
	return nil
}

// boundIn reports whether every free variable resolves in en to the cell
// it resolved to when t was started.
func (t *table) boundIn(en *env, free []string) bool {
	for i, v := range free {
		if en.cell(v) != t.cells[i] {
			return false
		}
	}
	return true
}

// tabledStep is Step on a tabled execution: the body is evaluated on each
// fed node not yet in the table, one node at a time, and the batch is the
// union of the fed nodes' answers. A new entry's answer goes through
// Family.Add, which rejects a non-node item in the round that computed it,
// and is stored as the nodes it added; a hit re-adds them unchecked. Every
// new entry is charged to the row budget, which so bounds the table's
// memory too.
func (b *ifpBody) tabledStep(feed *xdm.Family) (*xdm.Family, error) {
	b.out.Reset()
	for _, n := range feed.Nodes(0) {
		if ans, ok := b.tab.answers[n]; ok {
			*b.tab.hits++
			b.out.AddNodes(0, ans)
			continue
		}
		out, err := b.ev.eval(b.fp.Body, b.env.bind(b.fp.Var, xdm.Singleton(xdm.NewNode(n))), b.ctx)
		if err != nil {
			return nil, err
		}
		if err := b.ev.engine.opts.Budget.ChargeRows(len(out)); err != nil {
			return nil, err
		}
		start := b.out.Len()
		if err := b.add(out); err != nil {
			return nil, err
		}
		b.tab.answers[n] = slices.Clone(b.out.Nodes(0)[start:])
	}
	return &b.out, nil
}
