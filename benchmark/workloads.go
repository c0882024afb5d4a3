package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/xmlgen"
)

// document is one generated input file of a workload.
type document struct {
	uri, xml string
}

// request is one entry of a workload's cyclic request sequence: the POST
// body plus the /query parameters, and which of the workload's expected
// outcomes the response must match.
type request struct {
	query  string
	engine string // "interp", "rel", or "" (xqd's default)
	mode   string // "naive" or "" (auto)
	cache  bool   // false sends cache=0
	expect int    // index into the workload's expected outcomes
}

// params renders the request's /query parameters.
func (r request) params() string {
	v := url.Values{}
	if r.engine != "" {
		v.Set("engine", r.engine)
	}
	if r.mode != "" {
		v.Set("mode", r.mode)
	}
	if !r.cache {
		v.Set("cache", "0")
	}
	return v.Encode()
}

// workload is one named traffic mix: its documents, its request sequence,
// the xqd flags it runs under, and what the harness asserts about the
// caches afterwards.
type workload struct {
	name string
	why  string
	// xqdFlags are passed to xqd after -store/-addr.
	xqdFlags []string
	// build generates the documents and the request sequence from the
	// seed; requests cycle in order.
	build func(seed int64) ([]document, []request)
	// coldDocs marks the workload whose every request must miss the
	// document cache; on every other workload no request after set-up may.
	coldDocs bool
}

// The generator seeds are xmlgen's own defaults and stay fixed: across
// generator seeds the same configuration does 2–4× different work (bidder
// closure sizes, curriculum cycle counts), which would swamp any bound.
// --seed instead relabels identifiers (an isomorphic document: same shape,
// same work, different bytes and different results) and orders requests.
const (
	bidderScale       = 0.0015
	curriculumCourses = 250
	hospitalPatients  = 10000
	hospitalDocs      = 16
	hospitalCacheDocs = 4
	hotVariants       = 8
)

var workloads = []workload{
	{
		name: "bidder-rel",
		why:  "Table 2 bidder network on the relational engine, uncached: executor joins and cross products are nearly all the cost",
		build: func(seed int64) ([]document, []request) {
			return bidderDocs(seed), []request{{query: bench.BidderNetworkQuery, engine: "rel"}}
		},
	},
	{
		name: "bidder-interp",
		why:  "same document and query on the interpreter: algebra and opt do nothing, so executor work must leave it flat",
		build: func(seed int64) ([]document, []request) {
			return bidderDocs(seed), []request{{query: bench.BidderNetworkQuery, engine: "interp"}}
		},
	},
	{
		name: "curriculum-interp",
		why:  "deep recursion with id() and child steps, one fixpoint per course: step kernel and core accumulation, no joins or caches",
		build: func(seed int64) ([]document, []request) {
			xml := relabel(xmlgen.Curriculum(xmlgen.CurriculumSized(curriculumCourses)), "c", seed)
			return []document{{"curriculum.xml", xml}}, []request{{query: bench.CurriculumQuery, engine: "interp"}}
		},
	},
	{
		name: "dialogs-rel-naive",
		why:  "forced naive mu on the relational engine re-feeds the accumulated set through following-sibling every round",
		build: func(seed int64) ([]document, []request) {
			cfg := xmlgen.PlaySized()
			cfg.Acts, cfg.ScenesPerAct = 1, 3
			xml := relabel(xmlgen.Play(cfg), "line ", seed)
			q := strings.ReplaceAll(bench.DialogsQuery, "play.xml", "play-s.xml")
			return []document{{"play-s.xml", xml}}, []request{{query: q, engine: "rel", mode: "naive"}}
		},
	},
	{
		name: "hot-repeat",
		why:  "eight repeated query texts with caches on: both engines are bypassed, leaving HTTP, admission, cache clone and serialization",
		build: func(seed int64) ([]document, []request) {
			xml := relabel(xmlgen.Play(xmlgen.PlaySized()), "line ", seed)
			rng := rand.New(rand.NewSource(seed))
			var reqs []request
			for _, k := range rng.Perm(hotVariants) {
				q := fmt.Sprintf("(: %d.%d :)%s", seed, k, bench.DialogsQuery)
				reqs = append(reqs, request{query: q, cache: true})
			}
			return []document{{"play.xml", xml}}, reqs
		},
	},
	{
		name:     "cold-open",
		why:      "sixteen hospital documents behind a four-entry document cache: every request is a snapshot read, decode and CRC",
		xqdFlags: []string{"-cache-docs", strconv.Itoa(hospitalCacheDocs)},
		coldDocs: true,
		build: func(seed int64) ([]document, []request) {
			var docs []document
			for i := 0; i < hospitalDocs; i++ {
				cfg := xmlgen.HospitalSized(hospitalPatients)
				cfg.Seed += int64(i)
				docs = append(docs, document{fmt.Sprintf("hospital%d.xml", i), relabel(xmlgen.Hospital(cfg), "p", seed)})
			}
			// A fixed cyclic order over all sixteen keeps every reuse
			// distance at 16 > 4 cache entries, whatever the permutation.
			var reqs []request
			for _, i := range rand.New(rand.NewSource(seed)).Perm(hospitalDocs) {
				q := strings.ReplaceAll(bench.HospitalQuery, "hospital.xml", docs[i].uri)
				reqs = append(reqs, request{query: q, engine: "interp", expect: i})
			}
			return docs, reqs
		},
	},
}

func bidderDocs(seed int64) []document {
	return []document{{"auction.xml", relabel(xmlgen.Auction(xmlgen.FromScale(bidderScale)), "person", seed)}}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// relabel renames every <prefix><n> token of the document through a
// seed-chosen permutation of the numbers in use, so references stay
// consistent and the document's shape is untouched.
func relabel(xml, prefix string, seed int64) string {
	re := regexp.MustCompile(`\b` + regexp.QuoteMeta(prefix) + `(\d+)\b`)
	top := -1
	for _, m := range re.FindAllStringSubmatch(xml, -1) {
		if n, _ := strconv.Atoi(m[1]); n > top {
			top = n
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(top + 1)
	return re.ReplaceAllStringFunc(xml, func(tok string) string {
		n, _ := strconv.Atoi(tok[len(prefix):])
		return prefix + strconv.Itoa(perm[n])
	})
}
