// Package xmlgen generates the synthetic XML workloads of the paper's
// evaluation (Section 5, Table 2). Each generator is a substitution for a
// data source this repository cannot ship (EXPERIMENTS.md, "Faithfulness
// notes"): an XMark-style auction document (bidder network), a
// ToXgene-style curriculum and hospital instance, and Shakespeare-style
// play markup (Romeo and Juliet dialogs). All generators are deterministic
// given a seed.
package xmlgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// AuctionConfig scales the XMark-like auction document. The paper's scale
// factors 0.01 (small) through 0.33 (huge) map through FromScale.
type AuctionConfig struct {
	People               int
	OpenAuctions         int
	MaxBiddersPerAuction int
	Seed                 int64
}

// FromScale derives an auction configuration from an XMark-style scale
// factor (XMark SF 1.0 ≈ 25,500 persons and 12,000 open auctions).
func FromScale(sf float64) AuctionConfig {
	return AuctionConfig{
		People:               max(int(25500*sf), 10),
		OpenAuctions:         max(int(12000*sf), 5),
		MaxBiddersPerAuction: 10,
		Seed:                 42,
	}
}

// Auction produces the auction document: people with IDs, open auctions
// with a seller reference and bidder personrefs — exactly the subgraph the
// Figure 10 bidder-network query navigates. Sellers are drawn from a
// clustered distribution so the network's reachable sets grow superlinearly
// with the document, as in XMark.
func Auction(cfg AuctionConfig) string {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sb strings.Builder
	sb.Grow(cfg.People*60 + cfg.OpenAuctions*160)
	sb.WriteString(`<!DOCTYPE site [` + "\n" +
		`<!ATTLIST person id ID #REQUIRED>` + "\n" + `]>` + "\n")
	sb.WriteString("<site><people>")
	for i := 0; i < cfg.People; i++ {
		fmt.Fprintf(&sb, `<person id="person%d"><name>p%d</name></person>`, i, i)
	}
	sb.WriteString("</people><open_auctions>")
	// Clustered seller choice: a third of the auctions are sold by the
	// first 10%% of people, concentrating the network.
	pickPerson := func() int {
		if rng.Intn(3) == 0 && cfg.People >= 10 {
			return rng.Intn(cfg.People / 10)
		}
		return rng.Intn(cfg.People)
	}
	for i := 0; i < cfg.OpenAuctions; i++ {
		fmt.Fprintf(&sb, `<open_auction id="open_auction%d"><seller person="person%d"/>`,
			i, pickPerson())
		bidders := 1 + rng.Intn(cfg.MaxBiddersPerAuction)
		for b := 0; b < bidders; b++ {
			fmt.Fprintf(&sb, `<bidder><personref person="person%d"/></bidder>`, pickPerson())
		}
		sb.WriteString(`</open_auction>`)
	}
	sb.WriteString("</open_auctions></site>")
	return sb.String()
}

// CurriculumConfig scales the curriculum instance (Figure 1 DTD).
type CurriculumConfig struct {
	Courses int
	// MaxPrereqs bounds the prerequisites per course.
	MaxPrereqs int
	// CycleFraction is the share of courses receiving a back edge to an
	// earlier level, producing courses that are among their own
	// prerequisites (the xlinkit Rule 5 violations).
	CycleFraction float64
	Seed          int64
}

// CurriculumSized mirrors the paper's instances: medium = 800 courses,
// large = 4,000 (recursion depths 18 and 35).
func CurriculumSized(courses int) CurriculumConfig {
	return CurriculumConfig{Courses: courses, MaxPrereqs: 3, CycleFraction: 0.02, Seed: 7}
}

// Curriculum produces curriculum data with the Figure 1 DTD (including the
// ATTLIST ID declaration that makes fn:id work). Courses are layered so
// the prerequisite closure of a level-0 course has depth ≈ 0.6·√n,
// matching the paper's reported recursion depths.
func Curriculum(cfg CurriculumConfig) string {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Courses
	depth := int(0.6 * sqrtf(n))
	if depth < 2 {
		depth = 2
	}
	level := func(i int) int { return i * depth / n }
	firstOfLevel := make([]int, depth+2)
	for l := 1; l <= depth+1; l++ {
		firstOfLevel[l] = n
	}
	for i := 0; i < n; i++ {
		l := level(i)
		if i < firstOfLevel[l] {
			firstOfLevel[l] = i
		}
	}
	var sb strings.Builder
	sb.Grow(n * 120)
	sb.WriteString(`<!DOCTYPE curriculum [` + "\n" +
		`<!ELEMENT curriculum (course)*>` + "\n" +
		`<!ATTLIST course code ID #REQUIRED>` + "\n" + `]>` + "\n")
	sb.WriteString("<curriculum>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<course code="c%d"><prerequisites>`, i)
		l := level(i)
		if l < depth-1 {
			lo, hi := firstOfLevel[l+1], firstOfLevel[l+2]
			if hi > lo {
				prereqs := 1 + rng.Intn(cfg.MaxPrereqs)
				for p := 0; p < prereqs; p++ {
					fmt.Fprintf(&sb, `<pre_code>c%d</pre_code>`, lo+rng.Intn(hi-lo))
				}
			}
		}
		if l > 0 && rng.Float64() < cfg.CycleFraction {
			// Back edge to an earlier level: creates prerequisite cycles.
			fmt.Fprintf(&sb, `<pre_code>c%d</pre_code>`, rng.Intn(firstOfLevel[l]))
		}
		sb.WriteString(`</prerequisites></course>`)
	}
	sb.WriteString("</curriculum>")
	return sb.String()
}

// HospitalConfig scales the hereditary-disease instance of [11]: patient
// records whose ancestry is nested to a bounded depth.
type HospitalConfig struct {
	// Patients is the total number of patient elements (including nested
	// ancestor records), matching the paper's "50,000 patient records".
	Patients        int
	Depth           int
	DiseaseFraction float64
	Seed            int64
}

// HospitalSized mirrors the paper's instance shape (pedigree depth 5).
func HospitalSized(patients int) HospitalConfig {
	return HospitalConfig{Patients: patients, Depth: 5, DiseaseFraction: 0.3, Seed: 11}
}

// Hospital produces nested patient records: each patient carries a
// diagnosis and up to two parent records, recursively to the configured
// depth. The hereditary-disease query recurses from diagnosed patients
// into their ancestry subtrees.
func Hospital(cfg HospitalConfig) string {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sb strings.Builder
	sb.Grow(cfg.Patients * 90)
	sb.WriteString("<hospital>")
	remaining := cfg.Patients
	serial := 0
	var emit func(depth int)
	emit = func(depth int) {
		id := serial
		serial++
		remaining--
		diag := "healthy"
		if rng.Float64() < cfg.DiseaseFraction {
			diag = "hd"
		}
		fmt.Fprintf(&sb, `<patient id="p%d"><diagnosis>%s</diagnosis>`, id, diag)
		if depth < cfg.Depth {
			parents := 0
			if remaining > 0 {
				parents = 1 + rng.Intn(2)
			}
			if parents > remaining {
				parents = remaining
			}
			if parents > 0 {
				sb.WriteString("<parents>")
				for p := 0; p < parents && remaining > 0; p++ {
					emit(depth + 1)
				}
				sb.WriteString("</parents>")
			}
		}
		sb.WriteString("</patient>")
	}
	for remaining > 0 {
		emit(1)
	}
	sb.WriteString("</hospital>")
	return sb.String()
}

// PlayConfig scales the Shakespeare-style play markup.
type PlayConfig struct {
	Acts             int
	ScenesPerAct     int
	SpeechesPerScene int
	// MaxDialogRun bounds the length of alternating-speaker runs; the
	// longest run determines the recursion depth of the dialog query
	// (Romeo and Juliet reaches 33).
	MaxDialogRun int
	Seed         int64
}

// PlaySized approximates Romeo and Juliet: 5 acts, ~24 scenes, ~840
// speeches, longest uninterrupted dialog 33.
func PlaySized() PlayConfig {
	return PlayConfig{Acts: 5, ScenesPerAct: 5, SpeechesPerScene: 34, MaxDialogRun: 33, Seed: 3}
}

var speakerPool = []string{
	"ROMEO", "JULIET", "MERCUTIO", "BENVOLIO", "TYBALT", "NURSE",
	"FRIAR", "CAPULET", "LADY CAPULET", "MONTAGUE", "PARIS", "PRINCE",
}

// Play produces PLAY/ACT/SCENE/SPEECH/SPEAKER/LINE markup with
// alternating-speaker dialog runs, the shape the horizontal
// following-sibling recursion of Section 5 walks.
func Play(cfg PlayConfig) string {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sb strings.Builder
	sb.WriteString("<PLAY><TITLE>The Generated Tragedy</TITLE>")
	longest := 0
	for a := 0; a < cfg.Acts; a++ {
		fmt.Fprintf(&sb, "<ACT><TITLE>ACT %d</TITLE>", a+1)
		for s := 0; s < cfg.ScenesPerAct; s++ {
			fmt.Fprintf(&sb, "<SCENE><TITLE>SCENE %d</TITLE>", s+1)
			emitted := 0
			for emitted < cfg.SpeechesPerScene {
				// One alternating run between two speakers.
				run := 2 + rng.Intn(max(cfg.MaxDialogRun-1, 1))
				if a == 0 && s == 0 && longest == 0 {
					run = cfg.MaxDialogRun // pin the maximum for determinism
				}
				if run > cfg.SpeechesPerScene-emitted {
					run = cfg.SpeechesPerScene - emitted
				}
				x := rng.Intn(len(speakerPool))
				y := (x + 1 + rng.Intn(len(speakerPool)-1)) % len(speakerPool)
				for i := 0; i < run; i++ {
					who := speakerPool[x]
					if i%2 == 1 {
						who = speakerPool[y]
					}
					fmt.Fprintf(&sb, "<SPEECH><SPEAKER>%s</SPEAKER><LINE>line %d</LINE></SPEECH>", who, emitted)
					emitted++
				}
				if run > longest {
					longest = run
				}
				// Break the dialog: repeat the run's last speaker so the
				// alternation chain cannot continue across runs.
				last := x
				if (run-1)%2 == 1 {
					last = y
				}
				if emitted < cfg.SpeechesPerScene {
					fmt.Fprintf(&sb, "<SPEECH><SPEAKER>%s</SPEAKER><LINE>interruption</LINE></SPEECH>",
						speakerPool[last])
					emitted++
				}
			}
			sb.WriteString("</SCENE>")
		}
		sb.WriteString("</ACT>")
	}
	sb.WriteString("</PLAY>")
	return sb.String()
}

func sqrtf(n int) float64 {
	// Newton's method; avoids importing math for one call site.
	x := float64(n)
	if x <= 0 {
		return 0
	}
	z := x / 2
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
