package bench

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xmlgen"
)

var small = []Experiment{
	{ID: "t-bidder", Name: "bidder", Query: BidderNetworkQuery, DocURI: "auction.xml",
		DocXML: func() string {
			return xmlgen.Auction(xmlgen.AuctionConfig{People: 30, OpenAuctions: 20, MaxBiddersPerAuction: 4, Seed: 1})
		}},
	{ID: "t-dialogs", Name: "dialogs", Query: DialogsQuery, DocURI: "play.xml",
		DocXML: func() string {
			return xmlgen.Play(xmlgen.PlayConfig{Acts: 1, ScenesPerAct: 2, SpeechesPerScene: 20, MaxDialogRun: 6, Seed: 1})
		}},
	{ID: "t-curriculum", Name: "curriculum", Query: CurriculumQuery, DocURI: "curriculum.xml",
		DocXML: func() string { return xmlgen.Curriculum(xmlgen.CurriculumSized(60)) }},
	{ID: "t-hospital", Name: "hospital", Query: HospitalQuery, DocURI: "hospital.xml",
		DocXML: func() string { return xmlgen.Hospital(xmlgen.HospitalSized(120)) }},
}

// TestExperimentsAgreeAcrossEnginesAndAlgorithms runs scaled-down variants
// of every Table 2 workload and checks the paper's invariants: both
// engines and both algorithms compute the same result; every body is
// certified distributive (as Pathfinder recognized all §5 queries); and
// Delta never feeds more nodes than Naïve.
func TestExperimentsAgreeAcrossEnginesAndAlgorithms(t *testing.T) {
	for _, exp := range small {
		prep, err := Prepare(exp)
		if err != nil {
			t.Fatalf("%s: %v", exp.Name, err)
		}
		var lens []int
		var naiveFed, deltaFed int64
		for _, c := range Cells(Default) {
			o := prep.eval(c)
			if o.Err != nil {
				t.Fatalf("%s: %v", prep.ID(c), o.Err)
			}
			lens = append(lens, o.ResultLen)
			if !o.Distributive {
				t.Errorf("%s: %s did not certify the body distributive", exp.Name, c.Engine)
			}
			if c.Alg == core.Naive {
				naiveFed += o.NodesFed
			} else {
				deltaFed += o.NodesFed
			}
			// Naïve always applies the payload at least twice; Delta may
			// converge after the seeding application (depth 0).
			if c.Alg == core.Naive && o.Depth < 1 {
				t.Errorf("%s: depth %d, want >= 1", prep.ID(c), o.Depth)
			}
		}
		for _, l := range lens[1:] {
			if l != lens[0] {
				t.Errorf("%s: result sizes diverge across engines/algorithms: %v", exp.Name, lens)
			}
		}
		if deltaFed > naiveFed {
			t.Errorf("%s: Delta fed %d nodes, Naive %d — Delta must not feed more", exp.Name, deltaFed, naiveFed)
		}
	}
}

// TestRunVariesOneAxis drives the one runner end to end over a tiny
// curriculum with -vary ix=0,1: four cells × two arms, agreeing per cell
// on everything but cost, rendered as one table row per arm.
func TestRunVariesOneAxis(t *testing.T) {
	// testing.Benchmark honours -test.benchtime; two evaluations per cell
	// keep this a smoke, not a measurement.
	old := flag.Lookup("test.benchtime").Value.String()
	flag.Set("test.benchtime", "1x")
	t.Cleanup(func() { flag.Set("test.benchtime", old) })

	var vary Vary
	if err := vary.Set("ix=0,1"); err != nil {
		t.Fatal(err)
	}
	tiny := Experiment{ID: "t-curriculum", Name: "curriculum", Query: CurriculumQuery, DocURI: "curriculum.xml",
		DocXML: func() string { // cyclic, so the consistency check returns courses
			return xmlgen.Curriculum(xmlgen.CurriculumConfig{Courses: 40, MaxPrereqs: 2, CycleFraction: 0.5, Seed: 3})
		}}
	entries, err := Run([]Experiment{tiny}, vary.Configs(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("got %d entries, want 8", len(entries))
	}
	byID := map[string][]Entry{}
	for _, e := range entries {
		if e.P != 1 || e.Opt != 1 || e.NsOp <= 0 || e.AllocsOp <= 0 || e.ResultLen == 0 {
			t.Errorf("implausible entry %+v", e)
		}
		byID[e.ID] = append(byID[e.ID], e)
	}
	if len(byID) != 4 {
		t.Fatalf("got cells %v, want 4 ids", byID)
	}
	for id, arms := range byID {
		if len(arms) != 2 || arms[0].Ix != 0 || arms[1].Ix != 1 {
			t.Fatalf("%s: arms %+v, want ix=0 then ix=1", id, arms)
		}
		if err := armsAgree(arms[0], arms[1]); err != nil {
			t.Error(err)
		}
	}
	var sb strings.Builder
	WriteTable(&sb, entries, true)
	if got := strings.Count(sb.String(), "| t-curriculum"); got != 2 ||
		!strings.Contains(sb.String(), "| t-curriculum [p=1 opt=1 ix=0] |") {
		t.Errorf("table does not carry one row per arm:\n%s", sb.String())
	}
}

// TestRunSkipsInterpAtOpt0: the interpreter has no plan stage, so the
// opt axis measures its cells once.
func TestRunSkipsInterpAtOpt0(t *testing.T) {
	for _, c := range Cells(Config{P: 1, Opt: 0, Ix: 1}) {
		if c.Engine == EngineInterp {
			t.Errorf("interp cell %+v listed at opt=0", c)
		}
	}
	if n := len(Cells(Default)); n != 4 {
		t.Errorf("default configuration lists %d cells, want 4", n)
	}
}

// TestArmsMustAgree: the runner refuses a snapshot in which a varied arm
// changes what the fixpoint computed.
func TestArmsMustAgree(t *testing.T) {
	ref := Entry{ID: "T2.1/rel/Delta", Config: Default, NodesFed: 138, Depth: 4, ResultLen: 25, NsOp: 1, AllocsOp: 1}
	arm := ref
	arm.Ix, arm.NsOp, arm.AllocsOp = 0, 99, 99 // cost may differ
	if err := armsAgree(ref, arm); err != nil {
		t.Errorf("arms differing only in cost rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Entry){
		"nodes fed":     func(e *Entry) { e.NodesFed++ },
		"depth":         func(e *Entry) { e.Depth-- },
		"result length": func(e *Entry) { e.ResultLen = 0 },
	} {
		bad := arm
		mutate(&bad)
		err := armsAgree(ref, bad)
		if err == nil || !strings.Contains(err.Error(), "ix=0") || !strings.Contains(err.Error(), "T2.1/rel/Delta") {
			t.Errorf("%s mismatch: got %v, want an error naming the cell and the arm", name, err)
		}
	}
}
