package difftest

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/xmlgen"
)

// TestRoundStatsParity gates the optimizer against the fixpoint
// accounting: over the deterministic seed block, every relational
// configuration must report byte-identical per-round fed/delta/evaluated
// trace spans at -O0 and -O1 — a rewrite may change what operators cost,
// never what the fixpoint feeds back, evaluates, or how fast it converges.
func TestRoundStatsParity(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			CheckRoundStats(t, Generate(seed))
		})
	}
}

// TestRoundStatsFamiliesParity pins the same invariant on the paper's four
// query families on seeded instances deep enough for several fixpoint
// rounds, where tabled sites answer most rounds from their memo.
func TestRoundStatsFamiliesParity(t *testing.T) {
	families := []struct {
		name  string
		query string
		uri   string
		xml   string
	}{
		{"bidder", bench.BidderNetworkQuery, "auction.xml",
			xmlgen.Auction(xmlgen.AuctionConfig{
				People: 12, OpenAuctions: 8, MaxBiddersPerAuction: 3, Seed: 42})},
		{"dialogs", bench.DialogsQuery, "play.xml",
			xmlgen.Play(xmlgen.PlayConfig{
				Acts: 1, ScenesPerAct: 2, SpeechesPerScene: 8, MaxDialogRun: 5, Seed: 3})},
		{"curriculum", bench.CurriculumQuery, "curriculum.xml",
			xmlgen.Curriculum(xmlgen.CurriculumConfig{
				Courses: 30, MaxPrereqs: 2, CycleFraction: 0.1, Seed: 7})},
		{"hospital", bench.HospitalQuery, "hospital.xml",
			xmlgen.Hospital(xmlgen.HospitalConfig{
				Patients: 40, Depth: 4, DiseaseFraction: 0.3, Seed: 11})},
		// Pure pedigree closure: a strict-certified naive µ site, fed ∆
		// under Naïve by its table.
		{"pedigree-closure",
			`count(with $x seeded by doc("hospital.xml")/hospital/patient
recurse $x/parents/patient)`,
			"hospital.xml",
			xmlgen.Hospital(xmlgen.HospitalConfig{
				Patients: 40, Depth: 4, DiseaseFraction: 0.3, Seed: 11})},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			CheckRoundStats(t, Case{URI: f.uri, XML: f.xml, Query: f.query})
		})
	}
}
