package difftest

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/xmlgen"
)

// TestRoundStatsParity gates the delta-fed step rewrite: over the
// deterministic seed block, every relational configuration must report
// byte-identical per-round fed/delta trace spans at -O0 and -O1 — the
// rewrite may only shrink what the step operators consume, never what
// the fixpoint feeds back or how fast it converges.
func TestRoundStatsParity(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			CheckRoundStats(t, Generate(seed))
		})
	}
}

// TestRoundStatsFamiliesParity pins the same invariant on the paper's four
// query families — the plans whose optimized form actually carries the
// recdelta rewrite (bidder and hospital) — on seeded
// instances deep enough for several fixpoint rounds.
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
		// Pure pedigree closure: strict-certified AND structurally linear,
		// so this is the family whose *naive* µ site carries the delta-fed
		// step chain at runtime (the four above only carry it at µ∆ sites).
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
