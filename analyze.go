package ifpxq

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/obs"
	"repro/internal/xq/parser"
)

// AnalyzeReport is the outcome of Query.Analyze: the evaluation result plus
// everything the trace observed — pipeline phases, the optimized plan
// annotated with measured per-operator actuals (relational engine), and one
// span per fixpoint round at every site. Render formats it for humans.
type AnalyzeReport struct {
	// QueryID identifies this evaluation in logs and error messages.
	QueryID string
	Engine  Engine
	Opt     OptLevel
	// Phases are the recorded pipeline spans in capture order (parse,
	// compile, optimize, store-resolve, exec); names repeat when a phase
	// ran more than once (e.g. one store-resolve per document).
	Phases []obs.Phase
	// Plan is the executed relational plan, each operator annotated with
	// the optimizer's inferred properties and the measured actuals
	// (calls, rows in/out, self time, gathers, alloc estimate, and the rows
	// a ϱ had to sort when there were any). Empty for
	// the interpreter engine, which has no plan stage.
	Plan string
	// Sites holds the per-round spans of every fixpoint site, in the
	// order the sites first executed.
	Sites []SiteReport
	// DroppedRounds counts round spans lost to the trace's ring capacity;
	// 0 means Sites is complete.
	DroppedRounds int64
	// Result is the evaluation result; on budget truncation it carries
	// the fixpoint stats collected so far and Analyze also returns the
	// typed budget error.
	Result *Result
	// TotalNs is the wall time of the traced evaluation.
	TotalNs int64
}

// SiteReport is one fixpoint site's per-round trace. A site that executes
// several times (a fixpoint under an outer for loop) contributes its rounds
// back-to-back, each execution restarting at round 0.
type SiteReport struct {
	Site   int
	Label  string
	Rounds []obs.Round
}

// Analyze is EXPLAIN ANALYZE: it runs the query exactly as Eval would —
// same engines, same budget and error contract — while tracing every phase,
// per-operator actuals (relational engine), and per-round fixpoint spans.
// If opts.Trace is nil a fresh trace with a generated query ID is used.
// Budget truncations return the partial report alongside the typed error;
// any other error returns a nil report.
func (q *Query) Analyze(opts Options) (*AnalyzeReport, error) {
	tr := opts.Trace
	if tr == nil {
		tr = obs.NewTrace(obs.NextQueryID())
		opts.Trace = tr
	}
	// Analyze measures the evaluation; serving a cached result would
	// leave nothing to measure. The plan cache stays live — a hit shows
	// up as the compile/optimize phases vanishing from the report.
	opts.ResultCache = nil
	// Parsing happened in Parse before the trace existed; re-parse the
	// source so the report covers the full pipeline. Queries compiled
	// from other front ends (ParseRegularXPath) skip the phase.
	t0 := tr.Now()
	if _, err := parser.Parse(q.src); err == nil {
		tr.AddPhase("parse", t0, tr.Now()-t0)
	}
	rep := &AnalyzeReport{QueryID: tr.ID(), Engine: opts.Engine, Opt: opts.Opt}
	prof := obs.NewPlanProfile()
	start := time.Now()
	res, plan, evalErr := q.evaluate(&opts, prof)
	rep.TotalNs = time.Since(start).Nanoseconds()
	if plan != nil {
		rep.Plan = algebra.ExplainWith(plan.Root, analyzeAnnotator(plan.Root, prof))
	}
	rep.Result = res
	rep.Phases = tr.Phases()
	rep.DroppedRounds = tr.Dropped()
	labels := tr.Sites()
	bySite := make([][]obs.Round, len(labels))
	for _, r := range tr.Rounds() {
		if r.Site >= 0 && r.Site < len(bySite) {
			bySite[r.Site] = append(bySite[r.Site], r)
		}
	}
	for i, label := range labels {
		rep.Sites = append(rep.Sites, SiteReport{Site: i, Label: label, Rounds: bySite[i]})
	}
	if evalErr != nil && res == nil {
		return nil, evalErr
	}
	return rep, evalErr
}

// analyzeAnnotator combines the optimizer's inferred per-node properties
// with the profile's measured actuals into one explain annotation hook.
func analyzeAnnotator(root *algebra.Node, prof *obs.PlanProfile) func(*algebra.Node) string {
	props := opt.Annotate(root)
	return func(n *algebra.Node) string {
		parts := make([]string, 0, 2)
		if p := props(n); p != "" {
			parts = append(parts, p)
		}
		if st, ok := prof.Stats(n); ok {
			parts = append(parts, fmt.Sprintf("calls=%d in=%d out=%d self=%s gathers=%d mem~%s",
				st.Calls, st.RowsIn, st.RowsOut, fmtNs(st.SelfNs), st.Gathers, fmtBytes(st.AllocBytes)))
			if st.Sorted > 0 {
				parts = append(parts, fmt.Sprintf("sorted=%d", st.Sorted))
			}
		} else {
			parts = append(parts, "never executed")
		}
		return strings.Join(parts, " ")
	}
}

// maxRenderedRounds caps the per-site round listing in Render; later rounds
// are summarized in one elision line.
const maxRenderedRounds = 64

// Render formats the report: a phase breakdown, the annotated plan, and a
// per-round table for every fixpoint site. Durations use fmtNs, so golden
// tests can sanitize them with a single time-unit regex.
func (r *AnalyzeReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- explain analyze %s: engine=%s opt=O%s total=%s --\n",
		r.QueryID, r.Engine, r.Opt, fmtNs(r.TotalNs))
	// Merge repeated phases by name, keeping first-appearance order.
	var order []string
	merged := map[string]int64{}
	counts := map[string]int{}
	for _, p := range r.Phases {
		if _, ok := merged[p.Name]; !ok {
			order = append(order, p.Name)
		}
		merged[p.Name] += p.DurNs
		counts[p.Name]++
	}
	for _, name := range order {
		if counts[name] > 1 {
			fmt.Fprintf(&b, "phase %s: %s (%d spans)\n", name, fmtNs(merged[name]), counts[name])
		} else {
			fmt.Fprintf(&b, "phase %s: %s\n", name, fmtNs(merged[name]))
		}
	}
	if r.Plan != "" {
		b.WriteString("-- plan (optimized, annotated with actuals) --\n")
		b.WriteString(r.Plan)
		if !strings.HasSuffix(r.Plan, "\n") {
			b.WriteByte('\n')
		}
	}
	for _, s := range r.Sites {
		var fed, growth, ns int64
		for _, rd := range s.Rounds {
			fed += rd.Fed
			growth += rd.Delta
			ns += rd.DurNs
		}
		fmt.Fprintf(&b, "fixpoint site %d (%s): %d rounds, fed %d rows, grew %d rows in %s\n",
			s.Site, s.Label, len(s.Rounds), fed, growth, fmtNs(ns))
		shown := s.Rounds
		elided := 0
		if len(shown) > maxRenderedRounds {
			elided = len(shown) - maxRenderedRounds
			shown = shown[:maxRenderedRounds]
		}
		for _, rd := range shown {
			fmt.Fprintf(&b, "  round %d: fed=%d delta=%d evaluated=%d %s\n", rd.Round, rd.Fed, rd.Delta, rd.Evaluated, fmtNs(rd.DurNs))
		}
		if elided > 0 {
			fmt.Fprintf(&b, "  ... %d more rounds\n", elided)
		}
	}
	if r.DroppedRounds > 0 {
		fmt.Fprintf(&b, "!! %d round spans dropped at trace capacity\n", r.DroppedRounds)
	}
	if r.Result != nil {
		fmt.Fprintf(&b, "result: %d items\n", r.Result.Count())
	}
	return b.String()
}

// fmtNs renders a nanosecond duration with a single unit suffix
// (ns/µs/ms/s), never time.Duration's compound forms, so one regex over the
// rendering sanitizes every duration.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
