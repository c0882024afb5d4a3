// Package ifpxq is the public API of this repository: an XQuery engine
// pair with the paper's inflationary fixed point operator
// `with $x seeded by e_seed recurse e_rec`, its Naïve and Delta evaluation
// algorithms, and both distributivity checks (syntactic ds$x(·), Figure 5;
// algebraic ∪ push-up, Section 4) that decide when Delta is safe.
//
// Quickstart:
//
//	docs := ifpxq.DocsFromStrings(map[string]string{"curriculum.xml": xml})
//	q, _ := ifpxq.Parse(`with $x seeded by doc("curriculum.xml")//course[@code="c1"]
//	                     recurse $x/id(./prerequisites/pre_code)`)
//	res, _ := q.Eval(ifpxq.Options{Docs: docs})
//	fmt.Println(res.String())
package ifpxq

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/regularxpath"
	"repro/internal/store"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xq/ast"
	"repro/internal/xq/dist"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

// Engine selects the evaluation back-end.
type Engine uint8

// Engines. EngineInterpreter evaluates the tree-at-a-time way (the paper's
// Saxon experiments); EngineRelational compiles to the Table 1 algebra and
// executes µ/µ∆ set-at-a-time (the MonetDB/XQuery experiments).
const (
	EngineInterpreter Engine = iota
	EngineRelational
)

// OptLevel selects how the relational plan optimizer runs. The zero value
// is "on": every evaluation gets the property-driven rewrite pass unless
// the caller explicitly asks for the compiler's verbatim plan.
type OptLevel uint8

// Optimizer levels.
const (
	// OptDefault is Opt1: the optimizer is on by default.
	OptDefault OptLevel = iota
	// Opt0 executes the verbatim loop-lifting translation (-O0).
	Opt0
	// Opt1 runs property inference + the rewrite rule engine + sub-plan
	// hash-consing between compilation and execution (-O1).
	Opt1
)

// Mode selects the fixpoint algorithm.
type Mode uint8

// Fixpoint modes. ModeAuto lets the engine's distributivity check decide —
// the processor-in-control behaviour the paper advocates.
const (
	ModeAuto Mode = iota
	ModeNaive
	ModeDelta
)

// DocResolver resolves fn:doc URIs.
type DocResolver = func(uri string) (*xdm.Document, error)

// Store is a persistent document store: a directory of arena snapshots
// (and XML files) served through a bounded, concurrency-safe document
// cache. See OpenStore and internal/store.
type Store = store.Store

// StoreOptions configure OpenStore.
type StoreOptions = store.Options

// OpenStore opens a persistent document store rooted at opts.Dir. Set the
// result as Options.Store to resolve fn:doc through its cache.
func OpenStore(opts StoreOptions) (*Store, error) { return store.Open(opts) }

// SaveSnapshot writes the document's arena snapshot to path (atomically),
// so later loads skip XML parsing; by convention snapshots live next to
// their XML under "<uri>.xqs".
func SaveSnapshot(path string, d *xdm.Document) error { return store.Save(path, d) }

// LoadSnapshot reads an arena snapshot. Mmap opens it zero-copy via mmap
// (falling back to a plain read on platforms without mmap support).
func LoadSnapshot(path string, mmap bool) (*xdm.Document, error) {
	if mmap {
		return store.LoadMmap(path)
	}
	return store.Load(path)
}

// DocsChain tries each resolver in order. A resolver that does not know a
// URI signals so with a not-found error (xdm.IsNotFound) and the chain
// falls through; any other error — a parse failure, a corrupt snapshot —
// aborts immediately. When every resolver misses, the error names the URI
// and repeats each resolver's search path.
func DocsChain(resolvers ...DocResolver) DocResolver {
	return func(uri string) (*xdm.Document, error) {
		var attempts []string
		for _, r := range resolvers {
			d, err := r(uri)
			if err == nil {
				return d, nil
			}
			if !xdm.IsNotFound(err) {
				return nil, err
			}
			attempts = append(attempts, err.Error())
		}
		return nil, xdm.NotFoundf("document %q not found: %s",
			uri, strings.Join(attempts, "; "))
	}
}

// Options configure evaluation.
type Options struct {
	Engine        Engine
	Mode          Mode
	MaxIterations int
	// StrictAlgebraicCheck uses Table 1's exact push rules in the
	// relational engine's auto decision (default false = extended rules).
	StrictAlgebraicCheck bool
	// Opt selects the relational plan optimizer level (default on; Opt0
	// runs the compiler's verbatim plan). The optimizer is semantics-
	// preserving: results and fixpoint statistics are byte-identical at
	// every level (guarded by internal/difftest). The interpreter engine
	// has no plan stage, so the level is a no-op there.
	Opt  OptLevel
	Docs DocResolver
	// Store, when set, resolves fn:doc through the persistent document
	// store's cache: every document the evaluation touches is pinned in
	// the cache (stable node identity, no eviction mid-query) until the
	// evaluation returns. URIs the store does not know fall through to
	// Docs when that is also set.
	Store *store.Store
	// ContextItem sets the initial context item (interpreter only).
	ContextItem *xdm.Item
	// Parallelism is the fixpoint-round worker-pool width shared by both
	// engines: per-iteration absorption, step joins, and join probes in
	// the relational µ/µ∆, and the accumulation in the interpreter's
	// Naïve/Delta drivers, all shard across it. 0 = runtime.GOMAXPROCS(0),
	// 1 = sequential. Results are byte-identical at every setting.
	Parallelism int
	// NoIndex makes both engines answer every axis step by walking the
	// arena instead of letting the step kernel (xdm.Step) probe the name
	// index. Results are byte-identical either way and plans do not depend
	// on it — the knob exists for the difftest index-parity gate (`make
	// parity-check`) and the bench index sweep.
	NoIndex bool
	// Context, when non-nil, cancels evaluation: fixpoint rounds observe
	// it between rounds and inside sharded operators, and the worker pool
	// is fully drained before the context's error is returned.
	Context context.Context
	// Deadline, when non-zero, bounds the evaluation's wall-clock time.
	// It is checked on entry, between fixpoint rounds in both engines, at
	// every table materialization in the relational executor, and on a
	// sampled counter in the interpreter's tree walk; crossing it returns
	// a typed xdm.ErrDeadline error. Unlike Context cancellation the error
	// is deterministic in shape, so servers can classify timeouts.
	Deadline time.Time
	// MaxRounds bounds the post-seed rounds of every fixpoint site (per
	// execution). The paper's µ/µ∆ deliberately admit unbounded recursion;
	// MaxRounds turns a runaway site into a typed xdm.ErrRounds error.
	// Unlike MaxIterations (the divergence backstop, an ErrIFP), this is a
	// per-request allowance with its own budget-exceeded code. 0 = no
	// bound beyond MaxIterations.
	MaxRounds int
	// MaxRows bounds the rows the evaluation may materialize, cumulatively:
	// fixpoint feeds and growth in both engines, plus every operator table
	// the relational executor builds. Exceeding it returns a typed
	// xdm.ErrRows error. 0 = unbounded.
	MaxRows int64
	// Trace, when non-nil, records the evaluation's phases
	// (compile/optimize/store-resolve/exec) and one span per fixpoint
	// round at every site, in both engines. Tracing is passive: results,
	// errors, and fixpoint statistics are byte-identical with and without
	// it (guarded by internal/difftest CheckTracing), and a nil Trace
	// costs only nil checks. Query.Analyze supplies one automatically.
	Trace *obs.Trace
	// PlanCache, when set, reuses compiled, optimized relational plans
	// across evaluations keyed on (source, mode, strict, opt level), so a
	// repeat query skips the compile and optimize phases entirely. Plans
	// are immutable after compilation (all execution state is per-run),
	// so one cache is safe under any concurrency. Caching is
	// semantics-preserving: results, errors, and fixpoint statistics are
	// byte-identical with and without it (difftest CheckCaching).
	PlanCache *PlanCache
	// ResultCache, when set, serves repeat evaluations their complete
	// cached result, keyed on the plan's structural hash plus the
	// deterministic budget options, and valid only while the document
	// store's generation stands still. Incomplete outcomes (errors,
	// budget truncations) are never cached, and evaluations with a
	// ContextItem bypass the cache (node identity cannot key it safely).
	ResultCache *ResultCache
}

// budget assembles the per-evaluation resource budget; nil when nothing
// is bounded. Each Eval call builds a fresh budget, so row accounting
// never leaks across evaluations of a shared Query.
func (o *Options) budget() *xdm.Budget {
	return xdm.NewBudget(o.Deadline, o.MaxRounds, o.MaxRows)
}

// resolver builds the effective fn:doc resolver for one evaluation and
// returns a cleanup releasing any store pins it acquired.
func (o *Options) resolver() (DocResolver, func()) {
	if o.Store == nil {
		return o.Docs, func() {}
	}
	sess := o.Store.Session()
	if o.Docs == nil {
		return sess.Resolve, sess.Close
	}
	return DocsChain(sess.Resolve, o.Docs), sess.Close
}

// Query is a parsed query, reusable across evaluations.
type Query struct {
	src    string
	module *ast.Module
	// rxp marks queries translated from Regular XPath, whose source text
	// lives in a different language than XQuery — cache keys must keep
	// the two namespaces apart even when the text coincides.
	rxp bool
}

// Parse parses XQuery source (prolog + body).
func Parse(src string) (*Query, error) {
	m, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{src: src, module: m}, nil
}

// MustParse parses or panics.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseRegularXPath translates a Regular XPath expression [25] (steps, /,
// |, filters, + and * closures) into a query evaluated from the document
// roots supplied at evaluation time via the context item.
func ParseRegularXPath(src string) (*Query, error) {
	p, err := regularxpath.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{src: src, module: &ast.Module{Body: p.Expr()}, rxp: true}, nil
}

// Module exposes the parsed AST (analysis tooling).
func (q *Query) Module() *ast.Module { return q.module }

// Source returns the original query text.
func (q *Query) Source() string { return q.src }

// FixpointReport describes one `with … seeded by … recurse` site.
type FixpointReport struct {
	Var string
	// Syntactic is the Figure 5 ds$x(·) verdict with the rule or reason.
	Syntactic     bool
	SyntacticRule string
	// Algebraic is the ∪ push-up verdict over the compiled body plan
	// (strict Table 1 rules) and its extended variant.
	Algebraic    bool
	AlgebraicExt bool
	// AlgebraicError reports why the body did not compile relationally.
	AlgebraicError string
}

// Distributivity analyzes every fixpoint site in the query with both the
// syntactic and the algebraic check.
func (q *Query) Distributivity() []FixpointReport {
	var reports []FixpointReport
	resolver := dist.ModuleResolver(q.module)
	var sites []*ast.Fixpoint
	ast.Walk(q.module.Body, func(e ast.Expr) bool {
		if fp, ok := e.(*ast.Fixpoint); ok {
			sites = append(sites, fp)
		}
		return true
	})
	for _, f := range q.module.Funcs {
		ast.Walk(f.Body, func(e ast.Expr) bool {
			if fp, ok := e.(*ast.Fixpoint); ok {
				sites = append(sites, fp)
			}
			return true
		})
	}
	plan, planErr := algebra.CompileModule(q.module)
	for i, fp := range sites {
		rep := FixpointReport{Var: fp.Var}
		syn := dist.Check(fp.Body, fp.Var, resolver)
		rep.Syntactic = syn.Safe
		rep.SyntacticRule = syn.Rule
		if planErr != nil {
			rep.AlgebraicError = planErr.Error()
		} else if i < len(plan.Mus) {
			rep.Algebraic = plan.Mus[i].Distributive
			rep.AlgebraicExt = plan.Mus[i].DistributiveExt
		}
		reports = append(reports, rep)
	}
	return reports
}

// ExplainPlan renders the raw (pre-optimization) relational plan of the
// query; Explain returns both the raw and the optimized plan.
func (q *Query) ExplainPlan() (string, error) {
	plan, err := algebra.CompileModule(q.module)
	if err != nil {
		return "", err
	}
	return algebra.Explain(plan.Root), nil
}

// PlanExplanation carries the raw and optimized renderings of a query's
// relational plan, each annotated with the optimizer's inferred properties
// (live columns, key sets, node-only columns, loop dependence), plus the
// per-plan operator multiset for before/after comparisons.
type PlanExplanation struct {
	Raw          string
	Optimized    string
	RawOps       map[string]int
	OptimizedOps map[string]int
}

// Explain compiles the query and renders the raw plan next to the plan the
// relational engine actually executes at the given optimizer level. At Opt0
// the optimized rendering is empty: the raw plan is what runs.
func (q *Query) Explain(level OptLevel) (*PlanExplanation, error) {
	plan, err := algebra.CompileModule(q.module)
	if err != nil {
		return nil, err
	}
	// Mirror the engine's default auto decision (extended rules) so the
	// rendering shows µ vs µ∆ the way evaluation would run them.
	for _, site := range plan.Mus {
		site.Mu.Delta = site.DistributiveExt
	}
	out := &PlanExplanation{
		Raw:    algebra.ExplainWith(plan.Root, opt.Annotate(plan.Root)),
		RawOps: algebra.Operators(plan.Root),
	}
	if level == Opt0 {
		return out, nil
	}
	opt.Optimize(plan)
	out.Optimized = algebra.ExplainWith(plan.Root, opt.Annotate(plan.Root))
	out.OptimizedOps = algebra.Operators(plan.Root)
	return out, nil
}

// FixpointStats instruments one fixpoint site's execution.
type FixpointStats struct {
	Algorithm    core.Algorithm
	Distributive bool
	Executions   int
	Stats        core.Stats
}

// Result is an evaluation outcome.
type Result struct {
	Items     xdm.Sequence
	Fixpoints []FixpointStats
}

// String serializes the result sequence as XML/text.
func (r *Result) String() string { return xmldoc.SerializeSequence(r.Items) }

// Strings returns the string value of each item.
func (r *Result) Strings() []string {
	out := make([]string, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.StringValue()
	}
	return out
}

// Count returns the result cardinality.
func (r *Result) Count() int { return len(r.Items) }

// Eval evaluates the query under the given options.
//
// When a resource budget (Deadline, MaxRounds, MaxRows) cuts the
// evaluation off, the error is typed (xdm.IsBudget) and the returned
// Result is non-nil with nil Items and Fixpoints carrying the partial
// instrumentation collected before the cutoff. Every other error returns
// a nil Result, as before.
func (q *Query) Eval(opts Options) (*Result, error) {
	budget := opts.budget()
	// The entry check makes an already-expired deadline fail identically
	// across every engine, mode, optimizer level, and worker count: no
	// engine runs a single operator first.
	if err := budget.CheckDeadline(); err != nil {
		return &Result{}, err
	}
	docs, done := opts.resolver()
	defer done()
	if opts.Trace != nil && docs != nil {
		docs = tracedDocs(opts.Trace, docs)
	}
	rcache := opts.ResultCache
	if opts.ContextItem != nil {
		// A context item is bound by node identity; no stable key exists.
		rcache = nil
	}
	switch opts.Engine {
	case EngineRelational:
		plan, planHash, err := q.relationalPlan(&opts)
		if err != nil {
			return nil, err
		}
		if rcache == nil {
			return relationalResult(relationalEngine(plan, &opts, budget, docs, nil))
		}
		key := resultKey(&opts, planHash)
		if res, ok := rcache.get(key); ok {
			return res, nil
		}
		// Read the generation before evaluating: if the store moves while
		// we run, the insert below is tagged too old and dropped rather
		// than trusted.
		gen := rcache.generation()
		col := newURICollector(docs)
		res, err := relationalResult(relationalEngine(plan, &opts, budget, col.resolver(), nil))
		if err == nil {
			rcache.put(key, gen, res, col.uris())
		}
		return res, err
	default:
		if rcache == nil {
			return interpResult(q.newInterpEngine(&opts, budget, docs))
		}
		key := resultKey(&opts, q.srcHash())
		if res, ok := rcache.get(key); ok {
			return res, nil
		}
		gen := rcache.generation()
		col := newURICollector(docs)
		res, err := interpResult(q.newInterpEngine(&opts, budget, col.resolver()))
		if err == nil {
			rcache.put(key, gen, res, col.uris())
		}
		return res, err
	}
}

// tracedDocs wraps a resolver so each document resolution records one
// "store-resolve" phase (renderers merge the spans by name).
func tracedDocs(tr *obs.Trace, docs DocResolver) DocResolver {
	return func(uri string) (*xdm.Document, error) {
		defer tr.StartPhase("store-resolve")()
		return docs(uri)
	}
}

// relationalResult executes the relational engine and packages its outcome
// under the Result/budget-error contract documented on Eval.
func relationalResult(en *algebra.Engine) (*Result, error) {
	distributive := false
	for _, site := range en.Plan().Mus {
		distributive = distributive || site.Distributive || site.DistributiveExt
	}
	seq, runs, err := en.Eval()
	res := &Result{}
	for _, run := range runs {
		alg := core.Naive
		if run.Delta {
			alg = core.Delta
		}
		res.Fixpoints = append(res.Fixpoints, FixpointStats{
			Algorithm: alg, Distributive: distributive,
			Executions: run.Executions, Stats: run.Stats,
		})
	}
	if err != nil {
		if xdm.IsBudget(err) {
			return res, err
		}
		return nil, err
	}
	res.Items = seq
	return res, nil
}

// newInterpEngine builds the interpreter engine for one evaluation.
func (q *Query) newInterpEngine(opts *Options, budget *xdm.Budget, docs DocResolver) *interp.Engine {
	mode := interp.ModeAuto
	switch opts.Mode {
	case ModeNaive:
		mode = interp.ModeNaive
	case ModeDelta:
		mode = interp.ModeDelta
	}
	return interp.New(q.module, interp.Options{
		Mode: mode, MaxIterations: opts.MaxIterations,
		Docs: docs, ContextItem: opts.ContextItem,
		Parallelism: opts.Parallelism, Context: opts.Context,
		NoIndex: opts.NoIndex,
		Budget:  budget, Trace: opts.Trace,
	})
}

// interpResult executes the interpreter engine and packages its outcome
// under the Result/budget-error contract documented on Eval.
func interpResult(en *interp.Engine) (*Result, error) {
	out, err := en.Eval()
	if err != nil {
		if out != nil && xdm.IsBudget(err) {
			res := &Result{}
			for _, run := range out.IFPRuns {
				res.Fixpoints = append(res.Fixpoints, FixpointStats{
					Algorithm: run.Algorithm, Distributive: run.Distributive,
					Executions: run.Executions, Stats: run.Stats,
				})
			}
			return res, err
		}
		return nil, err
	}
	res := &Result{Items: out.Value}
	for _, run := range out.IFPRuns {
		res.Fixpoints = append(res.Fixpoints, FixpointStats{
			Algorithm: run.Algorithm, Distributive: run.Distributive,
			Executions: run.Executions, Stats: run.Stats,
		})
	}
	return res, nil
}

// EvalString parses and evaluates in one step.
func EvalString(src string, opts Options) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return q.Eval(opts)
}

// ParseDocument parses an XML document for use with DocsFromDocuments.
func ParseDocument(xml, uri string) (*xdm.Document, error) {
	return xmldoc.ParseString(xml, uri)
}

// DocsFromStrings builds a resolver over in-memory XML texts keyed by URI.
// Documents are parsed once and cached (stable node identity).
func DocsFromStrings(byURI map[string]string) DocResolver {
	cache := map[string]*xdm.Document{}
	return func(uri string) (*xdm.Document, error) {
		if d, ok := cache[uri]; ok {
			return d, nil
		}
		src, ok := byURI[uri]
		if !ok {
			return nil, xdm.NotFoundf("doc(%q): not among the %d in-memory documents", uri, len(byURI))
		}
		d, err := xmldoc.ParseString(src, uri)
		if err != nil {
			return nil, err
		}
		cache[uri] = d
		return d, nil
	}
}

// DocsFromDocuments builds a resolver over pre-parsed documents.
func DocsFromDocuments(byURI map[string]*xdm.Document) DocResolver {
	return func(uri string) (*xdm.Document, error) {
		if d, ok := byURI[uri]; ok {
			return d, nil
		}
		return nil, xdm.NotFoundf("doc(%q): not among the pre-parsed documents", uri)
	}
}

// DocsFromDir resolves URIs against files under a directory.
func DocsFromDir(dir string) DocResolver {
	cache := map[string]*xdm.Document{}
	return func(uri string) (*xdm.Document, error) {
		if d, ok := cache[uri]; ok {
			return d, nil
		}
		clean := filepath.Clean(uri)
		if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
			return nil, xdm.Errorf(xdm.ErrDoc, "document URI %q escapes %q", uri, dir)
		}
		f, err := os.Open(filepath.Join(dir, clean))
		if os.IsNotExist(err) {
			return nil, xdm.NotFoundf("doc(%q): no file %s", uri, filepath.Join(dir, clean))
		}
		if err != nil {
			return nil, xdm.Errorf(xdm.ErrDoc, "doc(%q): %v", uri, err)
		}
		defer f.Close()
		d, err := xmldoc.Parse(f, uri)
		if err != nil {
			return nil, err
		}
		cache[uri] = d
		return d, nil
	}
}

// Hint applies the §3.2 distributivity-hint rewriting to every fixpoint
// body in the query: each body e becomes `for $y in $x return e[$y/$x]`,
// which rule FOR2 certifies. The caller asserts the bodies are in fact
// distributive — the rewrite changes the meaning of non-distributive ones.
func (q *Query) Hint() *Query {
	rewrite := func(e ast.Expr) ast.Expr {
		out := rewriteFixpoints(e)
		return out
	}
	m := &ast.Module{Vars: q.module.Vars}
	for _, f := range q.module.Funcs {
		nf := *f
		nf.Body = rewrite(f.Body)
		m.Funcs = append(m.Funcs, &nf)
	}
	m.Body = rewrite(q.module.Body)
	return &Query{src: ast.FormatModule(m), module: m}
}

func rewriteFixpoints(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	if fp, ok := e.(*ast.Fixpoint); ok {
		return &ast.Fixpoint{
			Var:  fp.Var,
			Seed: rewriteFixpoints(fp.Seed),
			Body: dist.Hint(rewriteFixpoints(fp.Body), fp.Var),
		}
	}
	// Generic structural rewrite via Substitute of a sentinel: simplest is
	// a manual walk over Children; reuse ast.Copy + in-place patch.
	cp := ast.Copy(e)
	patchChildren(cp)
	return cp
}

// patchChildren rewrites Fixpoint descendants of a freshly copied tree in
// place.
func patchChildren(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Seq:
		for i := range x.Items {
			x.Items[i] = rewriteFixpoints(x.Items[i])
		}
	case *ast.For:
		x.In = rewriteFixpoints(x.In)
		x.Body = rewriteFixpoints(x.Body)
	case *ast.Let:
		x.Value = rewriteFixpoints(x.Value)
		x.Body = rewriteFixpoints(x.Body)
	case *ast.Quantified:
		x.In = rewriteFixpoints(x.In)
		x.Cond = rewriteFixpoints(x.Cond)
	case *ast.If:
		x.Cond = rewriteFixpoints(x.Cond)
		x.Then = rewriteFixpoints(x.Then)
		x.Else = rewriteFixpoints(x.Else)
	case *ast.Binary:
		x.L = rewriteFixpoints(x.L)
		x.R = rewriteFixpoints(x.R)
	case *ast.Unary:
		x.E = rewriteFixpoints(x.E)
	case *ast.Slash:
		x.L = rewriteFixpoints(x.L)
		x.R = rewriteFixpoints(x.R)
	case *ast.Filter:
		x.E = rewriteFixpoints(x.E)
		for i := range x.Preds {
			x.Preds[i] = rewriteFixpoints(x.Preds[i])
		}
	case *ast.AxisStep:
		for i := range x.Preds {
			x.Preds[i] = rewriteFixpoints(x.Preds[i])
		}
	case *ast.FuncCall:
		for i := range x.Args {
			x.Args[i] = rewriteFixpoints(x.Args[i])
		}
	case *ast.TypeSwitch:
		x.Operand = rewriteFixpoints(x.Operand)
		for _, c := range x.Cases {
			c.Body = rewriteFixpoints(c.Body)
		}
		x.Default = rewriteFixpoints(x.Default)
	}
}

// Version identifies the library.
const Version = "1.0.0"
