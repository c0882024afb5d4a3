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
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// String is the engine's text form, "interp" or "rel": the one ParseEngine
// reads and the engine label of xqd's metrics.
func (e Engine) String() string {
	if e == EngineRelational {
		return "rel"
	}
	return "interp"
}

// ParseEngine reads an engine's text form or its long name (interpreter,
// relational); the empty text is EngineInterpreter.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "interp", "interpreter":
		return EngineInterpreter, nil
	case "rel", "relational":
		return EngineRelational, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

// OptLevel selects how the relational plan optimizer runs. The zero value
// is Opt1: every evaluation gets the property-driven rewrite pass unless
// the caller explicitly asks for the compiler's verbatim plan.
type OptLevel uint8

// Optimizer levels.
const (
	// Opt1 runs property inference + the rewrite rule engine + sub-plan
	// hash-consing between compilation and execution (-O1).
	Opt1 OptLevel = iota
	// Opt0 executes the verbatim loop-lifting translation (-O0).
	Opt0
)

// String is the level's text form, "0" or "1", the one ParseOptLevel reads.
func (l OptLevel) String() string {
	if l == Opt0 {
		return "0"
	}
	return "1"
}

// ParseOptLevel reads a level's text form; the empty text is Opt1.
func ParseOptLevel(s string) (OptLevel, error) {
	switch s {
	case "", "1":
		return Opt1, nil
	case "0":
		return Opt0, nil
	}
	return 0, fmt.Errorf("bad optimizer level %q (use 0 or 1)", s)
}

// Mode selects the fixpoint algorithm: core.Mode, whose Pick is the one
// place a site's algorithm is decided.
type Mode = core.Mode

// Fixpoint modes. ModeAuto lets the engine's distributivity check decide —
// the processor-in-control behaviour the paper advocates.
const (
	ModeAuto  = core.ModeAuto
	ModeNaive = core.ModeNaive
	ModeDelta = core.ModeDelta
)

// ParseMode reads a mode's text form (auto, naive, delta); the empty text
// is ModeAuto.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

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
	Engine Engine
	Mode   Mode
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
	// Deprecated: ignored; every evaluation is sequential.
	Parallelism int
	// NoIndex makes both engines answer every axis step by walking the
	// arena instead of letting the step kernel (xdm.Step) probe the name
	// index. Results are byte-identical either way and plans do not depend
	// on it — the knob exists for the difftest index-parity gate (`make
	// parity-check`) and the bench index sweep.
	NoIndex bool
	// Context, when non-nil, cancels evaluation: both engines observe it
	// between fixpoint rounds, and the relational executor also before
	// each step and join.
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
	// Unlike core.RoundCap (the divergence backstop, an ErrIFP), this is a
	// per-request allowance with its own budget-exceeded code. 0 = no
	// bound beyond core.RoundCap.
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
	// across evaluations keyed on the query (source, language, mode,
	// optimizer level), so a repeat query skips the compile and optimize
	// phases entirely. Plans are immutable after compilation (all
	// execution state is per-run), so one cache is safe under any
	// concurrency. Caching is semantics-preserving: results, errors, and
	// fixpoint statistics are byte-identical with and without it
	// (difftest CheckCaching).
	PlanCache *PlanCache
	// ResultCache, when set, serves repeat evaluations their complete
	// cached result, keyed on the query (source, language, mode, optimizer
	// level), the engine and the deterministic budget options, and valid
	// only while the document store's generation stands still. Incomplete
	// outcomes (errors, budget truncations) are never cached, and
	// evaluations with a ContextItem bypass the cache (node identity
	// cannot key it safely).
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

// Distributivity analyzes every fixpoint site in the query — those in
// prolog variables, then in function bodies, then in the query body, each
// part in pre-order — with both the syntactic and the algebraic check. A
// function's site compiles once per call; its algebraic verdicts hold only
// when they hold for every call. A site no call reaches has none.
func (q *Query) Distributivity() []FixpointReport {
	plan, planErr := algebra.CompileModule(q.module)
	compiled := map[*ast.Fixpoint][]*algebra.MuSite{}
	if planErr == nil {
		for _, site := range plan.Mus {
			compiled[site.Fixpoint] = append(compiled[site.Fixpoint], site)
		}
	}
	resolver := dist.ModuleResolver(q.module)
	var reports []FixpointReport
	report := func(e ast.Expr) {
		for _, fp := range ast.Fixpoints(e) {
			syn := dist.Check(fp.Body, fp.Var, resolver)
			rep := FixpointReport{Var: fp.Var, Syntactic: syn.Safe, SyntacticRule: syn.Rule}
			switch sites := compiled[fp]; {
			case planErr != nil:
				rep.AlgebraicError = planErr.Error()
			case len(sites) == 0:
				rep.AlgebraicError = "no call reaches this site, so it is not compiled"
			default:
				rep.Algebraic, rep.AlgebraicExt = true, true
				for _, site := range sites {
					rep.Algebraic = rep.Algebraic && site.Distributive
					rep.AlgebraicExt = rep.AlgebraicExt && site.DistributiveExt
				}
			}
			reports = append(reports, rep)
		}
	}
	for _, v := range q.module.Vars {
		report(v.Value)
	}
	for _, f := range q.module.Funcs {
		report(f.Body)
	}
	report(q.module.Body)
	return reports
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
// relational engine actually executes in the given mode at the given
// optimizer level, each µ site as µ or µ∆ as that mode runs it. At Opt0
// the optimized rendering is empty: the raw plan is what runs.
func (q *Query) Explain(mode Mode, level OptLevel) (*PlanExplanation, error) {
	plan, err := compilePlan(q.module, mode, level, nil)
	if err != nil {
		return nil, err
	}
	out := &PlanExplanation{
		Raw:    algebra.ExplainWith(plan.Raw, opt.Annotate(plan.Raw)),
		RawOps: algebra.Operators(plan.Raw),
	}
	if level == Opt0 {
		return out, nil
	}
	out.Optimized = algebra.ExplainWith(plan.Root, opt.Annotate(plan.Root))
	out.OptimizedOps = algebra.Operators(plan.Root)
	return out, nil
}

// FixpointStats instruments one fixpoint site's execution: the algorithm
// that ran, the site's own distributivity certificate, and the Table 2
// counters aggregated over its executions. Result.Fixpoints lists the
// sites in first-execution order on both engines.
type FixpointStats = core.Site

// Result is an evaluation outcome. Items are read-only: a result served
// by a ResultCache shares them with the cache entry and every other hit
// on it, and all of those share one rendering, so String serializes a
// cached entry once however often it is hit.
type Result struct {
	Items     xdm.Sequence
	Fixpoints []FixpointStats
	// text is the rendering shared by a cache entry and its hits; nil on
	// an uncached result, which serializes on every String call.
	text *rendering
}

// rendering is a result's serialization, computed by the first String
// call on any result that shares it.
type rendering struct {
	once sync.Once
	s    string
}

// String serializes the result sequence as XML/text.
func (r *Result) String() string {
	if r.text == nil {
		return xmldoc.SerializeSequence(r.Items)
	}
	r.text.once.Do(func() { r.text.s = xmldoc.SerializeSequence(r.Items) })
	return r.text.s
}

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
	res, _, err := q.evaluate(&opts, nil)
	return res, err
}

// evaluate is the one evaluation pipeline behind Eval and Analyze: the
// entry deadline check, the document resolver (traced when opts carries a
// trace), the relational plan lookup, the result-cache probe and the engine
// run, under the Result contract documented on Eval. prof, when non-nil,
// collects the relational plan's per-operator actuals. plan is the
// relational plan that ran, nil on the interpreter.
func (q *Query) evaluate(opts *Options, prof *obs.PlanProfile) (res *Result, plan *algebra.Plan, err error) {
	budget := opts.budget()
	// The entry check makes an already-expired deadline fail identically
	// across every engine, mode, and optimizer level: no
	// engine runs a single operator first.
	if err := budget.CheckDeadline(); err != nil {
		return &Result{}, nil, err
	}
	docs, done := opts.resolver()
	defer done()
	if opts.Trace != nil && docs != nil {
		docs = tracedDocs(opts.Trace, docs)
	}
	// The plan lookup comes before the result probe, so every repeat of a
	// relational query is a plan-cache hit, its result cached or not.
	if opts.Engine == EngineRelational {
		if plan, err = q.relationalPlan(opts); err != nil {
			return nil, nil, err
		}
	}
	rc := opts.ResultCache
	if rc == nil || opts.ContextItem != nil {
		// A context item is bound by node identity; no stable key exists.
		res, err = q.run(opts, plan, budget, docs, prof)
		return res, plan, err
	}
	key := resultKey{queryKey: q.key(opts), engine: opts.Engine, maxRounds: opts.MaxRounds, maxRows: opts.MaxRows}
	if res, ok := rc.get(key); ok {
		return res, plan, nil
	}
	// Read the generation before evaluating: if the store moves while we
	// run, the insert below is tagged too old and dropped rather than
	// trusted.
	gen := rc.generation()
	col := newURICollector(docs)
	if res, err = q.run(opts, plan, budget, col.resolver(), prof); err == nil {
		rc.put(key, gen, res, col.uris())
	}
	return res, plan, err
}

// tracedDocs wraps a resolver so each document resolution records one
// "store-resolve" phase (renderers merge the spans by name).
func tracedDocs(tr *obs.Trace, docs DocResolver) DocResolver {
	return func(uri string) (*xdm.Document, error) {
		defer tr.StartPhase("store-resolve")()
		return docs(uri)
	}
}

// run executes one engine over docs — the relational one on plan, the
// interpreter when plan is nil — and packages its outcome under the
// Result contract documented on Eval. Mode and optimizer level are already
// baked into a plan; only the per-run knobs matter here.
func (q *Query) run(opts *Options, plan *algebra.Plan, budget *xdm.Budget, docs DocResolver, prof *obs.PlanProfile) (*Result, error) {
	var fps []FixpointStats
	if plan != nil {
		seq, runs, err := algebra.NewEngineFromPlan(plan, algebra.Options{
			Docs: docs, NoIndex: opts.NoIndex, Context: opts.Context,
			Budget: budget, Trace: opts.Trace, Prof: prof,
		}).Eval()
		for _, run := range runs {
			fps = append(fps, run.Site)
		}
		return result(seq, fps, err)
	}
	out, err := interp.New(q.module, interp.Options{
		Mode: opts.Mode, Docs: docs, ContextItem: opts.ContextItem,
		Context: opts.Context, NoIndex: opts.NoIndex,
		Budget: budget, Trace: opts.Trace,
	}).Eval()
	if out == nil {
		return nil, err
	}
	for _, run := range out.IFPRuns {
		fps = append(fps, run.Site)
	}
	return result(out.Value, fps, err)
}

// result applies the contract documented on Eval: a budget truncation
// keeps the partial fixpoint stats and drops the items, every other error
// drops both.
func result(items xdm.Sequence, fps []FixpointStats, err error) (*Result, error) {
	if err == nil {
		return &Result{Items: items, Fixpoints: fps}, nil
	}
	if xdm.IsBudget(err) {
		return &Result{Fixpoints: fps}, err
	}
	return nil, err
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
	hint := func(e ast.Expr) ast.Expr {
		return ast.Rewrite(e, func(x ast.Expr) ast.Expr {
			if fp, ok := x.(*ast.Fixpoint); ok {
				fp.Body = dist.Hint(fp.Body, fp.Var)
			}
			return x
		})
	}
	m := &ast.Module{Body: hint(q.module.Body)}
	for _, v := range q.module.Vars {
		m.Vars = append(m.Vars, &ast.VarDecl{Name: v.Name, Value: hint(v.Value)})
	}
	for _, f := range q.module.Funcs {
		nf := *f
		nf.Body = hint(f.Body)
		m.Funcs = append(m.Funcs, &nf)
	}
	return &Query{src: ast.FormatModule(m), module: m}
}

// Version identifies the library.
const Version = "1.0.0"
