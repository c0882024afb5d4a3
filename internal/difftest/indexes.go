package difftest

import (
	"reflect"
	"testing"

	ifpxq "repro"
	"repro/internal/xdm"
)

// CheckIndexes proves the name-index probe path is invisible to results:
// every (engine, mode, optimizer level, parallelism) configuration is
// evaluated with the index path disabled (pure arena scans) to establish a
// baseline, then with the index path enabled — the production default.
// Both runs must agree byte-for-byte on the result string, the error, and
// the fixpoint statistics. Both engines answer steps through the one
// kernel (xdm.Step), which decides walk-vs-probe per context node at run
// time — at -O0 as at -O1 — and the choice must be invisible everywhere.
func CheckIndexes(t testing.TB, c Case) {
	t.Helper()
	var q *ifpxq.Query
	var err error
	if c.RegularXPath {
		q, err = ifpxq.ParseRegularXPath(c.Query)
	} else {
		q, err = ifpxq.Parse(c.Query)
	}
	if err != nil {
		t.Fatalf("seed %d: parse %q: %v", c.Seed, c.Query, err)
	}

	doc, err := ifpxq.ParseDocument(c.XML, c.URI)
	if err != nil {
		t.Fatalf("seed %d: document: %v", c.Seed, err)
	}
	docs := ifpxq.DocsFromDocuments(map[string]*xdm.Document{c.URI: doc})
	root := xdm.NewNode(doc.Root())

	engines := []ifpxq.Engine{ifpxq.EngineInterpreter}
	if !c.RegularXPath {
		engines = append(engines, ifpxq.EngineRelational)
	}

	for _, engine := range engines {
		for _, mode := range []ifpxq.Mode{ifpxq.ModeNaive, ifpxq.ModeAuto} {
			optLevels := OptLevels
			if engine == ifpxq.EngineInterpreter {
				optLevels = OptLevels[:1] // no plan stage: -O is a no-op
			}
			for _, opt := range optLevels {
				for _, p := range Parallelisms {
					opts := ifpxq.Options{Engine: engine, Mode: mode, Docs: docs, Parallelism: p, Opt: opt}
					if c.RegularXPath {
						opts.ContextItem = &root
					}
					opts.NoIndex = true
					scan := evalOutcome(q, opts)
					opts.NoIndex = false
					indexed := evalOutcome(q, opts)
					if indexed.err != scan.err {
						t.Errorf("seed %d engine=%v mode=%v -O%s p=%d: index probing changes the error: %q vs %q",
							c.Seed, engine, mode, optName(opt), p, indexed.err, scan.err)
					}
					if indexed.result != scan.result {
						t.Errorf("seed %d engine=%v mode=%v -O%s p=%d: index probing changes the result:\nscan:    %q\nindexed: %q",
							c.Seed, engine, mode, optName(opt), p, scan.result, indexed.result)
					}
					if !reflect.DeepEqual(indexed.fixpoints, scan.fixpoints) {
						t.Errorf("seed %d engine=%v mode=%v -O%s p=%d: index probing changes fixpoint stats:\nscan:    %+v\nindexed: %+v",
							c.Seed, engine, mode, optName(opt), p, scan.fixpoints, indexed.fixpoints)
					}
				}
			}
		}
	}
}
