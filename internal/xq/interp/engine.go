// Package interp is the direct, tree-at-a-time XQuery evaluator — the
// repository's stand-in for Saxon in the paper's experiments. It evaluates
// the LiXQuery-class AST directly over xdm node stores and computes
// inflationary fixed points through internal/core, choosing between Naïve
// and Delta per the syntactic distributivity check (or a forced mode).
//
// A Delta site whose body is certified distributive is tabled in
// internal/core: from its second execution under the same bindings and
// focus on (bindings, eval.go), its body is evaluated once per distinct
// node over the whole evaluation. Other sites evaluate the whole feed.
package interp

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
	"repro/internal/xq/dist"
	"repro/internal/xq/parser"
)

// The fixpoint modes, re-exported from core: auto picks Delta exactly where
// the syntactic distributivity check certifies the body.
const (
	ModeAuto  = core.ModeAuto
	ModeNaive = core.ModeNaive
	ModeDelta = core.ModeDelta
)

// DocResolver resolves fn:doc URIs to parsed documents.
type DocResolver func(uri string) (*xdm.Document, error)

// Options configure an Engine.
type Options struct {
	Mode         core.Mode
	MaxCallDepth int // user-defined function recursion; 0 = 8192
	ContextItem  *xdm.Item
	Docs         DocResolver
	// Deprecated: ignored; every evaluation is sequential.
	Parallelism int
	// Context, when non-nil, cancels fixpoint computations between rounds.
	Context context.Context
	// NoIndex disables name-index probing of axis steps (the arena-walk
	// baseline); results are byte-identical either way.
	NoIndex bool
	// Budget, when non-nil, bounds the evaluation: core's fixpoint loop
	// checks the deadline and round budget between rounds and charges feeds
	// and growth against the row budget, and the tree
	// evaluator polls the deadline on a sampled counter so long
	// non-recursive evaluations are also cut off. Budget errors unwind with
	// the partial IFPRuns collected so far.
	Budget *xdm.Budget
	// Trace, when non-nil, records the evaluation's "exec" phase and one
	// span per fixpoint round at every site (through internal/core).
	// Tracing is read-only: results and stats are byte-identical with and
	// without it.
	Trace *obs.Trace
}

// IFPRun reports one (aggregated) fixpoint site's execution: the recursion
// variable, the Figure 5 rule (or blocking reason) behind the syntactic
// distributivity verdict, and core's record — which algorithm ran, whether
// the body was certified distributive, and the Table 2 counters. Fixpoints
// nested under for-loops execute once per binding; their counters
// aggregate per syntactic site.
type IFPRun struct {
	Var  string
	Rule string
	core.Site
	bound *bindings // a tabled site's, during the evaluation
}

// Result is a query evaluation outcome.
type Result struct {
	Value   xdm.Sequence
	IFPRuns []IFPRun
}

// Engine evaluates one parsed module.
type Engine struct {
	module   *ast.Module
	opts     Options
	docCache map[string]*xdm.Document
}

// New builds an engine for a module.
func New(m *ast.Module, opts Options) *Engine {
	if opts.MaxCallDepth == 0 {
		opts.MaxCallDepth = 8192
	}
	return &Engine{module: m, opts: opts, docCache: map[string]*xdm.Document{}}
}

// Module returns the engine's module.
func (en *Engine) Module() *ast.Module { return en.module }

// Doc resolves a document URI through the engine's resolver, caching
// results so repeated fn:doc calls observe stable node identities, as the
// XQuery semantics require.
func (en *Engine) Doc(uri string) (*xdm.Document, error) {
	if d, ok := en.docCache[uri]; ok {
		return d, nil
	}
	if en.opts.Docs == nil {
		return nil, xdm.Errorf(xdm.ErrDoc, "no document resolver configured (fn:doc(%q))", uri)
	}
	d, err := en.opts.Docs(uri)
	if err != nil {
		return nil, err
	}
	en.docCache[uri] = d
	return d, nil
}

// Eval evaluates the module body and returns the result sequence along
// with fixpoint instrumentation. On a resource-budget truncation
// (xdm.IsBudget) the returned Result is non-nil with a nil Value and the
// partial IFPRuns collected before the cutoff, so servers can report how
// far a shed query got; every other error returns a nil Result.
func (en *Engine) Eval() (*Result, error) {
	defer en.opts.Trace.StartPhase("exec")()
	ev := &evaluator{
		engine: en,
		sites: core.NewSites[*ast.Fixpoint, *IFPRun](core.Config{
			Context: en.opts.Context, Budget: en.opts.Budget, Trace: en.opts.Trace,
		}),
		globals: map[string]xdm.Sequence{},
	}
	defer ev.index.Flush()
	var ctx dynCtx
	if en.opts.ContextItem != nil {
		ctx = dynCtx{item: *en.opts.ContextItem, ok: true, pos: 1, size: 1}
	}
	// Globals are evaluated eagerly in declaration order; forward
	// references are undefined-variable errors, as in XQuery without
	// cyclic module imports.
	genv := (*env)(nil)
	for _, v := range en.module.Vars {
		val, err := ev.eval(v.Value, genv, ctx)
		if err != nil {
			return ev.partialResult(err), err
		}
		ev.globals[v.Name] = val
		genv = genv.bind(v.Name, val)
	}
	ev.globalEnv = genv
	val, err := ev.eval(en.module.Body, genv, ctx)
	if err != nil {
		return ev.partialResult(err), err
	}
	res := &Result{Value: val, IFPRuns: ev.runs()}
	return res, nil
}

// runs snapshots the per-site fixpoint instrumentation in first-execution
// order.
func (ev *evaluator) runs() []IFPRun {
	var out []IFPRun
	for _, run := range ev.sites.All() {
		r := *run
		r.bound = nil
		out = append(out, r)
	}
	return out
}

// partialResult packages the instrumentation collected before a budget
// cutoff; non-budget errors keep the nil-Result contract.
func (ev *evaluator) partialResult(err error) *Result {
	if !xdm.IsBudget(err) {
		return nil
	}
	return &Result{IFPRuns: ev.runs()}
}

// EvalString is a convenience that parses and evaluates in one step.
func EvalString(src string, opts Options) (*Result, error) {
	m, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return New(m, opts).Eval()
}

// distCheck runs the syntactic distributivity check for a fixpoint body.
func (en *Engine) distCheck(fp *ast.Fixpoint) dist.Result {
	return dist.Check(fp.Body, fp.Var, dist.ModuleResolver(en.module))
}
