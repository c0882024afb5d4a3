package algebra

import (
	"context"

	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// FixpointMode selects how compiled µ sites evaluate.
type FixpointMode uint8

// Fixpoint modes.
const (
	// ModeAuto trades µ for µ∆ exactly when the algebraic distributivity
	// check certifies the body (the MonetDB/XQuery behaviour of §5).
	ModeAuto FixpointMode = iota
	// ModeNaive forces µ everywhere.
	ModeNaive
	// ModeDelta forces µ∆ everywhere (unsafe for non-distributive bodies).
	ModeDelta
)

// Options configure an Engine.
type Options struct {
	Mode FixpointMode
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
	// Optimize, when non-nil, rewrites the compiled plan between
	// compilation and execution (callers pass opt.Optimize from
	// internal/algebra/opt; nil executes the compiler's verbatim plan).
	// It runs after the per-site µ/µ∆ decision, so rewrites see the final
	// Delta flags and the distributivity check always judges the raw plan.
	Optimize func(*Plan)
	// Trace, when non-nil, records the compile/optimize/exec phases and
	// one span per fixpoint round at every µ site. Prof, when non-nil,
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
func CompilePlan(m *ast.Module, mode FixpointMode, strict bool, optimize func(*Plan), tr *obs.Trace) (*Plan, error) {
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
		switch mode {
		case ModeNaive:
			site.Mu.Delta = false
		case ModeDelta:
			site.Mu.Delta = true
		default:
			site.Mu.Delta = site.Mu.Tabled
		}
	}
	if optimize != nil {
		stopOpt := tr.StartPhase("optimize")
		optimize(plan)
		stopOpt()
	}
	return plan, nil
}

// NewEngine compiles the module and fixes each µ site's algorithm per the
// requested mode, auto mode deciding by the extended rules.
func NewEngine(m *ast.Module, opts Options) (*Engine, error) {
	plan, err := CompilePlan(m, opts.Mode, false, opts.Optimize, opts.Trace)
	if err != nil {
		return nil, err
	}
	return &Engine{plan: plan, opts: opts}, nil
}

// NewEngineFromPlan builds an engine around an already-compiled plan (a
// plan-cache hit). The plan must have been produced by CompilePlan with
// the mode and optimizer these options imply — the engine does not
// re-derive any of it.
func NewEngineFromPlan(plan *Plan, opts Options) *Engine {
	return &Engine{plan: plan, opts: opts}
}

// Plan exposes the compiled plan (explain output, tests).
func (e *Engine) Plan() *Plan { return e.plan }

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
