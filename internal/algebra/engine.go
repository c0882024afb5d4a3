package algebra

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// The fixpoint modes, re-exported from core: auto trades µ for µ∆ exactly
// where the extended algebraic check certifies the body (the
// MonetDB/XQuery behaviour of §5).
const (
	ModeAuto  = core.ModeAuto
	ModeNaive = core.ModeNaive
	ModeDelta = core.ModeDelta
)

// Options configure an Engine.
type Options struct {
	Docs func(uri string) (*xdm.Document, error)
	// Deprecated: ignored; every evaluation is sequential.
	Parallelism int
	// NoIndex disables the name-index probe path in the step executor;
	// results are byte-identical either way (difftest CheckIndexes).
	NoIndex bool
	// Context, when non-nil, cancels execution between rounds and before
	// each step or join.
	Context context.Context
	// Budget, when non-nil, bounds execution: every freshly materialized
	// table is charged against the row budget, and core's fixpoint loop
	// checks the deadline and round budget between rounds. Budget errors
	// unwind with the MuRun stats collected so far.
	Budget *xdm.Budget
	// Trace, when non-nil, records the exec phase and one span per
	// fixpoint round at every µ site (CompilePlan takes its own trace for
	// the compile and optimize phases). Prof, when non-nil,
	// accumulates per-operator actuals (calls, rows in/out, self time,
	// gathers, alloc estimate) keyed by *Node — the EXPLAIN ANALYZE data.
	// Both are read-only instrumentation: results and MuRun stats are
	// byte-identical with and without them (difftest CheckTracing).
	Trace *obs.Trace
	Prof  *obs.PlanProfile
}

// Engine evaluates a module through the relational pipeline: loop-lifting
// compilation, algebraic distributivity check, plan execution with µ/µ∆ —
// the repository's MonetDB/XQuery analog.
type Engine struct {
	plan *Plan
	opts Options
}

// CompilePlan compiles the module, fixes each µ site's algorithm per the
// requested mode, and runs the optimizer — everything about a plan that
// depends only on (module, mode, strict, optimizer) and nothing about a
// single evaluation. The returned plan holds no mutable execution state
// (that all lives in ExecContext, keyed by node pointer), so one compiled
// plan is safely shared across concurrent evaluations — the contract the
// serving layer's plan cache relies on. strict makes auto mode (and
// tabling) follow Table 1's exact push rules instead of the extended ones.
func CompilePlan(m *ast.Module, mode core.Mode, strict bool, optimize func(*Plan), tr *obs.Trace) (*Plan, error) {
	stopCompile := tr.StartPhase("compile")
	plan, err := CompileModule(m)
	stopCompile()
	if err != nil {
		return nil, err
	}
	for _, site := range plan.Mus {
		// The certificate auto mode picks µ∆ by also tables the body under
		// every mode (core.Site.Tabled).
		site.Mu.Tabled = site.DistributiveExt
		if strict {
			site.Mu.Tabled = site.Distributive
		}
		site.Mu.Delta = mode.Pick(site.Mu.Tabled) == core.Delta
	}
	if optimize != nil {
		stopOpt := tr.StartPhase("optimize")
		optimize(plan)
		stopOpt()
	}
	return plan, nil
}

// NewEngineFromPlan builds an engine around a plan from CompilePlan, which
// fixed its µ/µ∆ picks and ran its optimizer; the engine re-derives none
// of it, so one plan (a plan-cache hit) serves any number of engines.
func NewEngineFromPlan(plan *Plan, opts Options) *Engine {
	return &Engine{plan: plan, opts: opts}
}

// Eval executes the plan and returns the result sequence plus fixpoint
// instrumentation, one MuRun per µ site in first-execution order.
func (e *Engine) Eval() (xdm.Sequence, []MuRun, error) {
	ctx := &ExecContext{
		Docs: e.opts.Docs, NoIndex: e.opts.NoIndex, Ctx: e.opts.Context,
		Budget: e.opts.Budget, Trace: e.opts.Trace, Prof: e.opts.Prof,
	}
	stopExec := e.opts.Trace.StartPhase("exec")
	t, err := Eval(e.plan.Root, ctx)
	stopExec()
	var runs []MuRun
	for mu, run := range ctx.sites.All() {
		// Each site reports its own certificate under the default extended
		// rules, found by the recursion base the optimizer never clones.
		for _, site := range e.plan.Mus {
			if site.Mu.RecBase == mu.RecBase {
				run.Distributive = site.Distributive || site.DistributiveExt
			}
		}
		runs = append(runs, *run)
	}
	if err != nil {
		return nil, runs, err
	}
	return ResultSequence(t), runs, nil
}
