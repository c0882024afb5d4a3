// Package bench defines the four query families of the paper's evaluation
// (Section 5, Table 2) and a harness that regenerates the table: for every
// experiment it runs Naïve and Delta on both engines (the direct
// interpreter standing in for Saxon, the relational pipeline for
// MonetDB/XQuery) and reports evaluation time, total nodes fed back, and
// recursion depth.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

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
	// RelationalOnly marks workloads too large for the tree-at-a-time
	// interpreter within the harness budget (both engines still run for
	// the default sizes).
	RelationalOnly bool
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

// Measurement is one (engine, algorithm) cell of Table 2.
type Measurement struct {
	Engine    string
	Algorithm core.Algorithm
	Elapsed   time.Duration
	Stats     core.Stats
	ResultLen int
	// Distributive reports the engine's own distributivity verdict for
	// the query's fixpoint body (syntactic for interp, algebraic for rel).
	Distributive bool
	// Phases breaks the cell's last run into traced pipeline phases
	// (compile/optimize/exec for rel, exec for interp), cumulative
	// nanoseconds by phase name.
	Phases map[string]int64
}

// Row is one fully measured Table 2 row.
type Row struct {
	Exp          Experiment
	DocBytes     int
	Measurements []Measurement
}

// Runner executes experiments.
type Runner struct {
	MaxIterations int
	// Parallelism is the fixpoint worker-pool width passed to both
	// engines (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// Opt0 runs the relational engine on the compiler's verbatim plan
	// (-O0); the default is the optimized plan, matching production.
	Opt0 bool
	// NoIndex makes both engines walk the arena on every step (the
	// -index-sweep scan arm); results are byte-identical.
	NoIndex bool
}

// docResolverFor parses the experiment's document once and serves it for
// both engines.
func docResolverFor(exp Experiment) (func(string) (*xdm.Document, error), int, error) {
	xml := exp.DocXML()
	doc, err := xmldoc.ParseString(xml, exp.DocURI)
	if err != nil {
		return nil, 0, err
	}
	return func(uri string) (*xdm.Document, error) {
		if uri != exp.DocURI {
			return nil, xdm.Errorf(xdm.ErrDoc, "unknown document %q", uri)
		}
		return doc, nil
	}, len(xml), nil
}

// PreparedExperiment is an experiment with its document generated/parsed
// and its query parsed, so individual cells can be measured without the
// setup cost inside the timed region.
type PreparedExperiment struct {
	Exp      Experiment
	DocBytes int
	runner   *Runner
	docs     func(string) (*xdm.Document, error)
	module   *ast.Module
}

// Prepare generates and parses the experiment's document and query once.
func (r *Runner) Prepare(exp Experiment) (*PreparedExperiment, error) {
	docs, nbytes, err := docResolverFor(exp)
	if err != nil {
		return nil, err
	}
	m, err := parser.Parse(exp.Query)
	if err != nil {
		return nil, err
	}
	return &PreparedExperiment{Exp: exp, DocBytes: nbytes, runner: r, docs: docs, module: m}, nil
}

// RunCell measures one (engine, algorithm) cell of the prepared
// experiment. Engine is EngineInterp or EngineRelational.
func (p *PreparedExperiment) RunCell(engine string, alg core.Algorithm) (Measurement, error) {
	if engine == EngineRelational {
		return p.runner.runRelational(p.module, alg, p.docs)
	}
	return p.runner.runInterp(p.module, alg, p.docs)
}

// Run measures one experiment on both engines and both algorithms.
func (r *Runner) Run(exp Experiment) (*Row, error) {
	p, err := r.Prepare(exp)
	if err != nil {
		return nil, err
	}
	m, docs := p.module, p.docs
	row := &Row{Exp: exp, DocBytes: p.DocBytes}
	for _, alg := range []core.Algorithm{core.Naive, core.Delta} {
		im, err := r.runInterp(m, alg, docs)
		if err != nil {
			return nil, fmt.Errorf("%s interp %v: %w", exp.ID, alg, err)
		}
		row.Measurements = append(row.Measurements, im)
		rm, err := r.runRelational(m, alg, docs)
		if err != nil {
			return nil, fmt.Errorf("%s rel %v: %w", exp.ID, alg, err)
		}
		row.Measurements = append(row.Measurements, rm)
	}
	return row, nil
}

func (r *Runner) runInterp(m *ast.Module, alg core.Algorithm, docs func(string) (*xdm.Document, error)) (Measurement, error) {
	mode := interp.ModeNaive
	if alg == core.Delta {
		mode = interp.ModeDelta
	}
	tr := obs.NewTrace("bench")
	en := interp.New(m, interp.Options{
		Mode: mode, Docs: docs, MaxIterations: r.MaxIterations, Parallelism: r.Parallelism,
		NoIndex: r.NoIndex, Trace: tr,
	})
	start := time.Now()
	res, err := en.Eval()
	elapsed := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	meas := Measurement{Engine: EngineInterp, Algorithm: alg, Elapsed: elapsed,
		ResultLen: len(res.Value), Phases: tr.PhaseNs()}
	for _, run := range res.IFPRuns {
		meas.Stats.PayloadCalls += run.Stats.PayloadCalls
		meas.Stats.NodesFedBack += run.Stats.NodesFedBack
		meas.Stats.ResultSize += run.Stats.ResultSize
		if run.Stats.Depth > meas.Stats.Depth {
			meas.Stats.Depth = run.Stats.Depth
		}
		meas.Distributive = meas.Distributive || run.Distributive
	}
	return meas, nil
}

func (r *Runner) runRelational(m *ast.Module, alg core.Algorithm, docs func(string) (*xdm.Document, error)) (Measurement, error) {
	mode := algebra.ModeNaive
	if alg == core.Delta {
		mode = algebra.ModeDelta
	}
	var optimize func(*algebra.Plan)
	if !r.Opt0 {
		optimize = opt.Optimize
	}
	tr := obs.NewTrace("bench")
	en, err := algebra.NewEngine(m, algebra.Options{
		Mode: mode, Docs: docs, MaxIterations: r.MaxIterations, Parallelism: r.Parallelism,
		NoIndex: r.NoIndex, Optimize: optimize, Trace: tr,
	})
	if err != nil {
		return Measurement{}, err
	}
	distributive := false
	for _, site := range en.Plan().Mus {
		distributive = distributive || site.Distributive
	}
	start := time.Now()
	seq, runs, err := en.Eval()
	elapsed := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	meas := Measurement{Engine: EngineRelational, Algorithm: alg, Elapsed: elapsed,
		ResultLen: len(seq), Distributive: distributive, Phases: tr.PhaseNs()}
	for _, run := range runs {
		meas.Stats.PayloadCalls += run.Stats.PayloadCalls
		meas.Stats.NodesFedBack += run.Stats.NodesFedBack
		meas.Stats.ResultSize += run.Stats.ResultSize
		if run.Stats.Depth > meas.Stats.Depth {
			meas.Stats.Depth = run.Stats.Depth
		}
	}
	return meas, nil
}

// WriteTable renders measured rows in the layout of the paper's Table 2.
func WriteTable(w io.Writer, rows []*Row) {
	fmt.Fprintf(w, "%-26s │ %12s %12s │ %12s %12s │ %12s %12s │ %6s\n",
		"Query", "Rel Naive", "Rel Delta", "Interp Naive", "Interp Delta",
		"Fed(Naive)", "Fed(Delta)", "Depth")
	fmt.Fprintln(w, strings.Repeat("─", 126))
	for _, row := range rows {
		get := func(engine string, alg core.Algorithm) Measurement {
			for _, m := range row.Measurements {
				if m.Engine == engine && m.Algorithm == alg {
					return m
				}
			}
			return Measurement{}
		}
		rn, rd := get(EngineRelational, core.Naive), get(EngineRelational, core.Delta)
		in, id := get(EngineInterp, core.Naive), get(EngineInterp, core.Delta)
		depth := rn.Stats.Depth
		if in.Stats.Depth > depth {
			depth = in.Stats.Depth
		}
		fmt.Fprintf(w, "%-26s │ %12s %12s │ %12s %12s │ %12d %12d │ %6d\n",
			row.Exp.Name,
			fmtDur(rn.Elapsed), fmtDur(rd.Elapsed),
			fmtDur(in.Elapsed), fmtDur(id.Elapsed),
			rn.Stats.NodesFedBack+in.Stats.NodesFedBack,
			rd.Stats.NodesFedBack+id.Stats.NodesFedBack,
			depth)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}
