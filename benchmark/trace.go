package main

import (
	"fmt"
	"sort"
	"time"

	ifpxq "repro"
	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

// tracedRequests is how many requests of a workload's sequence the traced
// run replays.
const tracedRequests = 20

// Span names; each is one layer of the request path. The spans are recorded
// here, around the calls into each layer, in the order xqd's handler makes
// them — no file of the program carries a hook.
const (
	spanParse     = "parse"
	spanCompile   = "compile"
	spanOptimize  = "optimize"
	spanRelExec   = "rel-exec"
	spanInterp    = "interp-exec"
	spanDocOpen   = "doc-open"
	spanCache     = "cache"
	spanSerialize = "serialize"
	spanRequest   = "request" // each request's root; its self time is the replay's own glue
)

// spanLayers lists the spans in report order with the module each times.
var spanLayers = []struct{ span, module string }{
	{spanParse, "internal/xq/parser"},
	{spanCompile, "internal/algebra compile"},
	{spanOptimize, "internal/algebra/opt"},
	{spanRelExec, "internal/algebra exec"},
	{spanInterp, "internal/xq/interp + internal/core"},
	{spanDocOpen, "internal/store"},
	{spanCache, "internal/plancache + caches.go"},
	{spanSerialize, "internal/xmldoc"},
	{spanRequest, "replay glue"},
}

// span is one timed interval: spans of one request share its index, and
// Parent is the ID of the span that caused this one (-1 for a request's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory. A nil recorder records nothing, which is
// how the untraced replay runs the same code. The replay is sequential
// (p=1), so there is no locking.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) start(name string, parent, request int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Request: request,
		Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].EndNs = time.Since(r.t0).Nanoseconds()
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// its child spans cover; overlapping children are counted once and a child
// is clipped to its parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], [2]int64{lo, hi})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.StartNs
		for _, k := range iv {
			if k[1] <= edge {
				continue
			}
			covered += k[1] - max(k[0], edge)
			edge = k[1]
		}
		out[i] = s.EndNs - s.StartNs - covered
	}
	return out
}

// Operator classes of the relational executor's profile.
const (
	classStep   = "step"
	classJoin   = "join"
	classDedup  = "dedup"
	classRowNum = "rownum"
	classMu     = "mu"
	classOther  = "other"
)

// opClass buckets every plan operator kind; a kind missing here fails the
// package's test instead of landing in "other" unnoticed.
var opClass = map[algebra.OpKind]string{
	algebra.OpStep: classStep, algebra.OpIDLookup: classStep,
	algebra.OpJoin: classJoin, algebra.OpSemiJoin: classJoin,
	algebra.OpAntiJoin: classJoin, algebra.OpCross: classJoin,
	algebra.OpDistinct: classDedup,
	algebra.OpRowNum:   classRowNum,
	algebra.OpMu:       classMu, algebra.OpRecBase: classMu, algebra.OpRecDelta: classMu,
	algebra.OpLit: classOther, algebra.OpDoc: classOther, algebra.OpProject: classOther,
	algebra.OpAttach: classOther, algebra.OpSelect: classOther, algebra.OpUnion: classOther,
	algebra.OpDiff: classOther, algebra.OpGroupCount: classOther, algebra.OpNumOp: classOther,
	algebra.OpRowTag: classOther, algebra.OpCtor: classOther,
}

// planNodes lists the distinct nodes of a plan DAG.
func planNodes(root *algebra.Node) []*algebra.Node {
	seen := map[*algebra.Node]bool{}
	var out []*algebra.Node
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return out
}

// replayTotals sums what the replayed requests did, over all of them.
type replayTotals struct {
	requests                   int
	wallNs                     int64
	rounds, nodesFed, payloads int64
	relRowsOut                 int64
	planOps, planOpsOpt        int64
	resultBytes                int64
	classNs                    map[string]int64 // executor self time by operator class
}

// replayer replays a workload's requests in-process through the layers'
// public functions against the workload's store.
type replayer struct {
	w      workload
	reqs   []request
	oracle []outcome
	store  *ifpxq.Store
	plans  *ifpxq.PlanCache
	result *ifpxq.ResultCache
}

// one replays request i. rec and prof are nil on the untraced pass.
func (rp *replayer) one(i int, rec *recorder, prof *obs.PlanProfile, tot *replayTotals) error {
	r := rp.reqs[i%len(rp.reqs)]
	text, count, sites, err := rp.eval(i, r, rec, prof, tot)
	if err != nil {
		return err
	}
	tot.requests++
	tot.resultBytes += int64(len(text))
	if err := rp.oracle[r.expect].check(text, count, sites); err != nil {
		return fmt.Errorf("%s traced request %d: %w", rp.w.name, i, err)
	}
	return nil
}

// eval is the request path proper, under the request's root span: what
// xqd's handler does between reading the query and writing the reply.
func (rp *replayer) eval(i int, r request, rec *recorder, prof *obs.PlanProfile, tot *replayTotals) (text string, count int, sites []fixpoint, err error) {
	root := rec.start(spanRequest, -1, i)
	defer rec.end(root)
	sess := rp.store.Session()
	defer sess.Close()
	docs := func(parent int) func(string) (*xdm.Document, error) {
		return func(uri string) (*xdm.Document, error) {
			id := rec.start(spanDocOpen, parent, i)
			defer rec.end(id)
			return sess.Resolve(uri)
		}
	}
	var items xdm.Sequence
	addSite := func(alg core.Algorithm, st core.Stats) {
		sites = append(sites, fixpoint{Algorithm: alg.String(), Depth: st.Depth, NodesFed: st.NodesFedBack})
		tot.rounds += int64(st.Depth)
		tot.nodesFed += st.NodesFedBack
		tot.payloads += int64(st.PayloadCalls)
	}
	switch {
	case r.cache:
		id := rec.start(spanCache, root, i)
		q, err := rp.plans.Parse(r.query)
		if err != nil {
			return "", 0, nil, err
		}
		res, err := q.Eval(ifpxq.Options{Parallelism: 1, PlanCache: rp.plans, ResultCache: rp.result, Docs: docs(id)})
		rec.end(id)
		if err != nil {
			return "", 0, nil, err
		}
		items = res.Items
		for _, fp := range res.Fixpoints {
			addSite(fp.Algorithm, fp.Stats)
		}
	default:
		id := rec.start(spanParse, root, i)
		m, err := parser.Parse(r.query)
		rec.end(id)
		if err != nil {
			return "", 0, nil, err
		}
		if r.engine == "rel" {
			mode := algebra.ModeAuto
			if r.mode == "naive" {
				mode = algebra.ModeNaive
			}
			id = rec.start(spanCompile, root, i)
			plan, err := algebra.CompilePlan(m, mode, false, func(p *algebra.Plan) {
				oid := rec.start(spanOptimize, id, i)
				opt.Optimize(p)
				rec.end(oid)
			}, nil)
			rec.end(id)
			if err != nil {
				return "", 0, nil, err
			}
			id = rec.start(spanRelExec, root, i)
			seq, runs, err := algebra.NewEngineFromPlan(plan, algebra.Options{
				Docs: docs(id), Parallelism: 1, Prof: prof,
			}).Eval()
			rec.end(id)
			if err != nil {
				return "", 0, nil, err
			}
			items = seq
			for _, run := range runs {
				alg := core.Naive
				if run.Delta {
					alg = core.Delta
				}
				addSite(alg, run.Stats)
			}
			if prof != nil {
				tot.planOps += int64(len(planNodes(plan.Raw)))
				nodes := planNodes(plan.Root)
				tot.planOpsOpt += int64(len(nodes))
				for _, n := range nodes {
					if st, ok := prof.Stats(n); ok {
						tot.classNs[opClass[n.Op]] += st.SelfNs
						tot.relRowsOut += st.RowsOut
					}
				}
			}
		} else {
			mode := interp.ModeAuto
			if r.mode == "naive" {
				mode = interp.ModeNaive
			}
			id = rec.start(spanInterp, root, i)
			out, err := interp.New(m, interp.Options{Mode: mode, Docs: docs(id), Parallelism: 1}).Eval()
			rec.end(id)
			if err != nil {
				return "", 0, nil, err
			}
			items = out.Value
			for _, run := range out.IFPRuns {
				addSite(run.Algorithm, run.Stats)
			}
		}
	}
	id := rec.start(spanSerialize, root, i)
	text = xmldoc.SerializeSequence(items)
	rec.end(id)
	return text, len(items), sites, nil
}

// pass replays requests [first, first+n) and returns their totals.
func (rp *replayer) pass(first, n int, rec *recorder, traced bool) (replayTotals, error) {
	tot := replayTotals{classNs: map[string]int64{}}
	t0 := time.Now()
	for i := first; i < first+n; i++ {
		var prof *obs.PlanProfile
		if traced {
			prof = obs.NewPlanProfile()
		}
		if err := rp.one(i, rec, prof, &tot); err != nil {
			return tot, err
		}
	}
	tot.wallNs = time.Since(t0).Nanoseconds()
	return tot, nil
}
