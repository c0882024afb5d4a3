// Package bench defines the four query families of the paper's evaluation
// (Section 5, Table 2) and the one runner that regenerates the table: for
// every experiment it measures Naïve and Delta on both engines (the direct
// interpreter standing in for Saxon, the relational pipeline for
// MonetDB/XQuery) and reports evaluation time, allocations, total nodes
// fed back, and recursion depth — optionally along one oracle axis
// (optimizer level, index probing). End-to-end serving numbers are
// the benchmark/ module's business, not this package's.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/algebra/opt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/ast"
	"repro/internal/xq/interp"
	"repro/internal/xq/parser"
)

// BidderNetworkQuery is Figure 10: for every person, the transitive
// network of bidders reachable through auctions they sell.
const BidderNetworkQuery = `
declare variable $doc := doc("auction.xml");
declare function bidder($in as node()*) as node()* {
  for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
for $p in $doc//people/person
return <person>{ $p/@id }{ count(with $x seeded by $p recurse bidder($x)) }</person>`

// DialogsQuery is the Romeo-and-Juliet-style horizontal recursion: seeded
// with the speeches that open a dialog, each level extends every dialog by
// its next speech when the speakers alternate. The recursion depth is the
// maximum length of an uninterrupted dialog.
const DialogsQuery = `
with $x seeded by doc("play.xml")//SPEECH[not(preceding-sibling::SPEECH[1]/SPEAKER != SPEAKER)]
recurse for $s in $x
        return $s/following-sibling::SPEECH[1][SPEAKER != $s/SPEAKER]`

// CurriculumQuery is the xlinkit Rule 5 consistency check ([22], Appendix
// B): courses that are among their own prerequisites.
const CurriculumQuery = `
for $c in doc("curriculum.xml")/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`

// HospitalQuery explores patient records for a hereditary disease ([11]):
// from each diagnosed top-level patient, recurse through diagnosed
// ancestors in the nested pedigree.
const HospitalQuery = `
count(with $x seeded by doc("hospital.xml")/hospital/patient[diagnosis = "hd"]
recurse $x/parents/patient[diagnosis = "hd"])`

// Experiment is one Table 2 row specification.
type Experiment struct {
	ID     string // e.g. "T2.1"
	Name   string // e.g. "Bidder network (small)"
	Query  string
	DocURI string
	DocXML func() string
}

// Experiments returns the Table 2 rows. The scale factors are laptop-scale
// reductions of the paper's (which ran minutes on 2007 server hardware);
// the shapes — who wins and by how much — are what EXPERIMENTS.md records.
func Experiments() []Experiment {
	mk := func(id, name, query, uri string, gen func() string) Experiment {
		return Experiment{ID: id, Name: name, Query: query, DocURI: uri, DocXML: gen}
	}
	return []Experiment{
		mk("T2.1", "Bidder network (small)", BidderNetworkQuery, "auction.xml",
			func() string { return xmlgen.Auction(xmlgen.FromScale(0.001)) }),
		mk("T2.2", "Bidder network (medium)", BidderNetworkQuery, "auction.xml",
			func() string { return xmlgen.Auction(xmlgen.FromScale(0.0015)) }),
		mk("T2.3", "Bidder network (large)", BidderNetworkQuery, "auction.xml",
			func() string { return xmlgen.Auction(xmlgen.FromScale(0.002)) }),
		mk("T2.4", "Bidder network (huge)", BidderNetworkQuery, "auction.xml",
			func() string { return xmlgen.Auction(xmlgen.FromScale(0.003)) }),
		mk("T2.5", "Romeo and Juliet", DialogsQuery, "play.xml",
			func() string { return xmlgen.Play(xmlgen.PlaySized()) }),
		mk("T2.6", "Curriculum (medium)", CurriculumQuery, "curriculum.xml",
			func() string { return xmlgen.Curriculum(xmlgen.CurriculumSized(400)) }),
		mk("T2.7", "Curriculum (large)", CurriculumQuery, "curriculum.xml",
			func() string { return xmlgen.Curriculum(xmlgen.CurriculumSized(600)) }),
		mk("T2.8", "Hospital", HospitalQuery, "hospital.xml",
			func() string { return xmlgen.Hospital(xmlgen.HospitalSized(10000)) }),
	}
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id || strings.EqualFold(e.Name, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Engine names.
const (
	EngineInterp     = "interp" // tree-at-a-time (Saxon analog)
	EngineRelational = "rel"    // relational pipeline (MonetDB/XQuery analog)
)

// Cell is one measured point: an (engine, algorithm) cell of a Table 2 row
// at one configuration.
type Cell struct {
	Engine string
	Alg    core.Algorithm
	Config
}

// Outcome is what one evaluation of a cell reports besides its cost: the
// machine-independent Table 2 counters, which every arm of a -vary run
// must agree on.
type Outcome struct {
	NodesFed  int64
	Depth     int
	ResultLen int
	// BodyInputs counts the nodes the fixpoint body was evaluated on
	// (core.Site.BodyInputs); it is physical work, which the arms need not
	// agree on.
	BodyInputs int64
	// Distributive is the engine's own distributivity verdict for the
	// query's fixpoint body (syntactic for interp, algebraic for rel).
	Distributive bool
	// Phases are the evaluation's traced pipeline phases (compile/
	// optimize/exec for rel, exec for interp), cumulative ns by name; nil
	// for an untraced evaluation.
	Phases map[string]int64
	// Err is why the evaluation failed; the counters are then meaningless.
	Err error
}

// Prepared is an experiment with its document generated and parsed and its
// query parsed, so cells are measured without the setup cost.
type Prepared struct {
	Exp      Experiment
	DocBytes int
	docs     func(string) (*xdm.Document, error)
	module   *ast.Module
}

// Prepare generates and parses the experiment's document and query once.
func Prepare(exp Experiment) (*Prepared, error) {
	xml := exp.DocXML()
	doc, err := xmldoc.ParseString(xml, exp.DocURI)
	if err != nil {
		return nil, err
	}
	m, err := parser.Parse(exp.Query)
	if err != nil {
		return nil, err
	}
	docs := func(uri string) (*xdm.Document, error) {
		if uri != exp.DocURI {
			return nil, xdm.Errorf(xdm.ErrDoc, "unknown document %q", uri)
		}
		return doc, nil
	}
	return &Prepared{Exp: exp, DocBytes: len(xml), docs: docs, module: m}, nil
}

// ID is the cell's stable identifier across PRs, e.g. "T2.4/rel/Delta".
func (p *Prepared) ID(c Cell) string {
	return fmt.Sprintf("%s/%s/%s", p.Exp.ID, c.Engine, c.Alg)
}

// eval evaluates the cell once, traced into tr when tr is not nil.
func (p *Prepared) eval(c Cell, tr *obs.Trace) Outcome {
	var out Outcome
	tally := func(s core.Site) {
		out.NodesFed += s.Stats.NodesFedBack
		out.Depth = max(out.Depth, s.Stats.Depth)
		out.BodyInputs += s.BodyInputs()
	}
	mode := core.ModeNaive
	if c.Alg == core.Delta {
		mode = core.ModeDelta
	}
	if c.Engine == EngineRelational {
		var optimize func(*algebra.Plan)
		if c.Opt != 0 {
			optimize = opt.Optimize
		}
		plan, err := algebra.CompilePlan(p.module, mode, false, optimize, tr)
		if err != nil {
			return Outcome{Err: err}
		}
		for _, site := range plan.Mus {
			out.Distributive = out.Distributive || site.Distributive
		}
		seq, ifps, err := algebra.NewEngineFromPlan(plan, algebra.Options{
			Docs: p.docs, NoIndex: c.Ix == 0, Trace: tr,
		}).Eval()
		if err != nil {
			return Outcome{Err: err}
		}
		out.ResultLen = len(seq)
		for _, run := range ifps {
			tally(run.Site)
		}
	} else {
		res, err := interp.New(p.module, interp.Options{
			Mode: mode, Docs: p.docs, NoIndex: c.Ix == 0, Trace: tr,
		}).Eval()
		if err != nil {
			return Outcome{Err: err}
		}
		out.ResultLen = len(res.Value)
		for _, run := range res.IFPRuns {
			tally(run.Site)
			out.Distributive = out.Distributive || run.Distributive
		}
	}
	out.Phases = tr.PhaseNs()
	return out
}

// Bench returns the benchmark function of one cell — the only place a
// Table 2 cell is timed. Run (ifpbench's table, -markdown and -json) drives
// it through testing.Benchmark, BenchmarkTable2 through `go test -bench`.
// The timed evaluations run without an obs.Trace, whose per-round log
// would otherwise count in the engine's allocations. The last evaluation's
// outcome lands in *last: testing.Benchmark discards what b.Fatal prints,
// so a failure must reach Run some other way.
func (p *Prepared) Bench(c Cell, last *Outcome) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			*last = p.eval(c, nil)
			if last.Err != nil {
				b.Fatal(last.Err)
			}
		}
		b.ReportMetric(float64(last.NodesFed), "nodes-fed")
	}
}

// Cells lists the cells Run measures per experiment at one configuration.
// The interpreter has no plan stage, so under opt=0 its cells would
// duplicate the opt=1 ones and are left out.
func Cells(cfg Config) []Cell {
	var cells []Cell
	for _, engine := range []string{EngineInterp, EngineRelational} {
		if engine == EngineInterp && cfg.Opt == 0 {
			continue
		}
		for _, alg := range []core.Algorithm{core.Naive, core.Delta} {
			cells = append(cells, Cell{Engine: engine, Alg: alg, Config: cfg})
		}
	}
	return cells
}

// Run measures every cell of every experiment at each configuration and
// returns one entry per (cell, configuration). It refuses to return a
// snapshot in which two arms of one cell disagree on nodes fed back,
// recursion depth or result length: the axes are oracle arms, and a
// configuration that changes what the fixpoint computes is a bug, not a
// data point.
func Run(exps []Experiment, configs []Config, progress io.Writer) ([]Entry, error) {
	var entries []Entry
	for _, exp := range exps {
		prep, err := Prepare(exp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Fprintf(progress, "%s %s (document %d KiB)\n", exp.ID, exp.Name, prep.DocBytes/1024)
		first := map[string]Entry{}
		for _, cfg := range configs {
			for _, c := range Cells(cfg) {
				e, err := prep.measure(c)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", e.ID, cfg.Label(), err)
				}
				fmt.Fprintf(progress, "  %-18s %-16s %10s %10d allocs/op\n", e.ID, cfg.Label(), fmtNs(e.NsOp), e.AllocsOp)
				if ref, ok := first[e.ID]; !ok {
					first[e.ID] = e
				} else if err := armsAgree(ref, e); err != nil {
					return nil, err
				}
				entries = append(entries, e)
			}
		}
	}
	return entries, nil
}

// armsAgree checks two arms of one cell against each other — the old
// plane's counterpart of benchmark/'s oracle check.
func armsAgree(ref, e Entry) error {
	if e.NodesFed != ref.NodesFed || e.Depth != ref.Depth || e.ResultLen != ref.ResultLen {
		return fmt.Errorf("%s: arm %s (nodes fed %d, depth %d, result length %d) disagrees with arm %s (%d, %d, %d)",
			e.ID, e.Label(), e.NodesFed, e.Depth, e.ResultLen, ref.Label(), ref.NodesFed, ref.Depth, ref.ResultLen)
	}
	return nil
}

// measure runs one cell's Bench under testing.Benchmark and packages the
// result as a snapshot entry, its phases from one more evaluation, traced
// and untimed.
func (p *Prepared) measure(c Cell) (Entry, error) {
	e := Entry{ID: p.ID(c), Exp: p.Exp.ID, Engine: c.Engine, Alg: c.Alg.String(), Config: c.Config}
	// Collect between cells: an earlier cell's giant tables otherwise
	// inflate the GC pacing target and tax every later cell — which skews
	// exactly the cross-arm comparisons a -vary run exists to make.
	runtime.GC()
	runtime.GC()
	var out Outcome
	res := testing.Benchmark(p.Bench(c, &out))
	if out.Err != nil {
		return e, out.Err
	}
	if res.N == 0 {
		return e, fmt.Errorf("benchmark produced no measurement")
	}
	traced := p.eval(c, obs.NewTrace("bench"))
	if traced.Err != nil {
		return e, traced.Err
	}
	e.NsOp = float64(res.NsPerOp())
	e.BytesOp = res.AllocedBytesPerOp()
	e.AllocsOp = res.AllocsPerOp()
	e.NodesFed, e.Depth, e.ResultLen, e.PhaseNs = out.NodesFed, out.Depth, out.ResultLen, traced.Phases
	e.BodyInputs = out.BodyInputs
	return e, nil
}

// WriteTable renders entries in the layout of the paper's Table 2, one row
// per (experiment, configuration), as fixed-width text or as the markdown
// table EXPERIMENTS.md embeds. Rows at a non-default configuration carry it
// in brackets.
func WriteTable(w io.Writer, entries []Entry, markdown bool) {
	type rowKey struct {
		exp string
		Config
	}
	rows := map[rowKey]map[string]Entry{} // engine/alg → entry
	var order []rowKey
	for _, e := range entries {
		k := rowKey{e.Exp, e.Config}
		if rows[k] == nil {
			rows[k] = map[string]Entry{}
			order = append(order, k)
		}
		rows[k][e.Engine+"/"+e.Alg] = e
	}
	// The fed-back columns read rel/interp: the engines' Naïve counts
	// differ (393 vs 275 on T2.1), so one summed number would hide both.
	format := "%-42s │ %10s %10s │ %12s %12s │ %14s %14s │ %5d\n"
	if markdown {
		format = "| %s | %s | %s | %s | %s | %s | %s | %d |\n"
		fmt.Fprintln(w, "| Query | Rel Naive | Rel Delta | Interp Naive | Interp Delta | Fed back Naive (rel/interp) | Fed back Delta (rel/interp) | Depth |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|")
	} else {
		fmt.Fprintf(w, "%-42s │ %10s %10s │ %12s %12s │ %14s %14s │ %5s\n",
			"Query", "Rel Naive", "Rel Delta", "Interp Naive", "Interp Delta",
			"Fed(Naive)", "Fed(Delta)", "Depth")
		fmt.Fprintln(w, strings.Repeat("─", 134))
	}
	for _, k := range order {
		label := k.exp
		if exp, ok := ExperimentByID(k.exp); ok {
			label = exp.Name
		}
		if k.Config != Default {
			label = fmt.Sprintf("%s [%s]", label, k.Label())
		}
		rn, rd := rows[k]["rel/Naive"], rows[k]["rel/Delta"]
		in, id := rows[k]["interp/Naive"], rows[k]["interp/Delta"]
		fmt.Fprintf(w, format, label,
			fmtNs(rn.NsOp), fmtNs(rd.NsOp), fmtNs(in.NsOp), fmtNs(id.NsOp),
			fmtFed(rn, in), fmtFed(rd, id), max(rn.Depth, in.Depth))
	}
}

// fmtFed renders one fed-back column: the relational and the interpreter
// cell's counts, "-" for a cell the run did not measure.
func fmtFed(rel, interp Entry) string {
	one := func(e Entry) string {
		if e.ID == "" {
			return "-"
		}
		return fmt.Sprint(e.NodesFed)
	}
	return one(rel) + "/" + one(interp)
}

// fmtNs renders a ns/op value for the table; an unmeasured cell is "-".
func fmtNs(ns float64) string {
	switch {
	case ns == 0:
		return "-"
	case ns < 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns < 1e9:
		return fmt.Sprintf("%.0fms", ns/1e6)
	}
	return fmt.Sprintf("%.2fs", ns/1e9)
}
