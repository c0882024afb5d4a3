package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	ifpxq "repro"
	"repro/internal/xdm"
)

// defaultSeed is the seed whose expected outcomes are committed under
// expected/; any other seed's are computed at start-up.
const defaultSeed = 1

// siteOutcome is one fixpoint site's algorithm-independent recursion depth
// and the node count algorithm Naive feeds back.
type siteOutcome struct {
	Depth    int   `json:"depth"`
	NodesFed int64 `json:"nodes_fed"`
}

// outcome is what one request must return.
type outcome struct {
	SHA256 string        `json:"sha256"`
	Count  int           `json:"count"`
	Sites  []siteOutcome `json:"sites"`
}

// expectedFile is the committed oracle for one seed.
type expectedFile struct {
	Seed      int64                `json:"seed"`
	Workloads map[string][]outcome `json:"workloads"`
}

func digest(result string) string {
	sum := sha256.Sum256([]byte(result))
	return hex.EncodeToString(sum[:])
}

// computeOracle evaluates each distinct request of the workload on the
// interpreter in Naive mode — the one engine/algorithm pair no workload
// serves — against in-memory parses of the documents.
func computeOracle(docs []document, reqs []request) ([]outcome, error) {
	parsed := map[string]*xdm.Document{}
	for _, d := range docs {
		doc, err := ifpxq.ParseDocument(d.xml, d.uri)
		if err != nil {
			return nil, fmt.Errorf("oracle: parse %s: %w", d.uri, err)
		}
		parsed[d.uri] = doc
	}
	n := 0
	for _, r := range reqs {
		if r.expect >= n {
			n = r.expect + 1
		}
	}
	out := make([]outcome, n)
	done := make([]bool, n)
	for _, r := range reqs {
		if done[r.expect] {
			continue
		}
		done[r.expect] = true
		res, err := ifpxq.EvalString(r.query, ifpxq.Options{
			Mode: ifpxq.ModeNaive, Parallelism: 1,
			Docs: ifpxq.DocsFromDocuments(parsed),
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		o := outcome{SHA256: digest(res.String()), Count: res.Count()}
		for _, fp := range res.Fixpoints {
			o.Sites = append(o.Sites, siteOutcome{Depth: fp.Stats.Depth, NodesFed: fp.Stats.NodesFedBack})
		}
		out[r.expect] = o
	}
	return out, nil
}

func expectedPath(dir string, seed int64) string {
	return filepath.Join(dir, "expected", fmt.Sprintf("seed-%d.json", seed))
}

// loadOracle returns the workload's expected outcomes: the committed ones
// for the default seed, freshly computed ones otherwise.
func loadOracle(dir string, w workload, seed int64, docs []document, reqs []request) ([]outcome, error) {
	if seed != defaultSeed {
		return computeOracle(docs, reqs)
	}
	raw, err := os.ReadFile(expectedPath(dir, seed))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w (regenerate with --write-expected)", err)
	}
	var f expectedFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", expectedPath(dir, seed), err)
	}
	out, ok := f.Workloads[w.name]
	if !ok {
		return nil, fmt.Errorf("oracle: %s has no workload %q", expectedPath(dir, seed), w.name)
	}
	return out, nil
}

// writeExpected regenerates the committed oracle for the default seed.
func writeExpected(dir string) error {
	f := expectedFile{Seed: defaultSeed, Workloads: map[string][]outcome{}}
	for _, w := range workloads {
		docs, reqs := w.build(defaultSeed)
		out, err := computeOracle(docs, reqs)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		f.Workloads[w.name] = out
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "expected"), 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedPath(dir, defaultSeed), append(raw, '\n'), 0o644)
}

// fixpoint is one fixpoint site as a response (or a replayed evaluation)
// reports it.
type fixpoint struct {
	Algorithm string `json:"algorithm"`
	Depth     int    `json:"depth"`
	NodesFed  int64  `json:"nodes_fed_back"`
}

// check compares one result against its expected outcome. Depth is the same
// under every algorithm; the fed-back count is Naive's, so it is compared
// only where the site ran Naive.
func (o outcome) check(result string, count int, sites []fixpoint) error {
	if got := digest(result); got != o.SHA256 {
		return fmt.Errorf("result sha256 %s, want %s", got, o.SHA256)
	}
	if count != o.Count {
		return fmt.Errorf("count %d, want %d", count, o.Count)
	}
	if len(sites) != len(o.Sites) {
		return fmt.Errorf("%d fixpoint sites, want %d", len(sites), len(o.Sites))
	}
	for i, s := range sites {
		if s.Depth != o.Sites[i].Depth {
			return fmt.Errorf("site %d depth %d, want %d", i, s.Depth, o.Sites[i].Depth)
		}
		if s.Algorithm == "Naive" && s.NodesFed != o.Sites[i].NodesFed {
			return fmt.Errorf("site %d nodes fed %d, want %d", i, s.NodesFed, o.Sites[i].NodesFed)
		}
	}
	return nil
}
