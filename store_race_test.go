// Concurrency coverage for the persistent document store (run under
// -race): many goroutines evaluate fixpoint queries on both engines
// through ONE shared store cache whose capacity is far below the working
// set, so documents are constantly evicted and reloaded while concurrent
// queries hold pins — and every result must still be byte-identical to
// the single-threaded answer.
package ifpxq

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
)

func TestStoreConcurrentFixpointQueries(t *testing.T) {
	dir := t.TempDir()

	const docCount = 6
	queries := make([]*Query, docCount)
	for i := 0; i < docCount; i++ {
		var xml, uri, query string
		if i%2 == 0 {
			cfg := xmlgen.CurriculumSized(50 + 10*i)
			cfg.Seed = int64(i + 1)
			uri = fmt.Sprintf("curriculum-%d.xml", i)
			xml = xmlgen.Curriculum(cfg)
			query = fmt.Sprintf(`
for $c in doc(%q)/curriculum/course
where exists($c intersect (with $x seeded by $c recurse $x/id(./prerequisites/pre_code)))
return $c/@code/string()`, uri)
		} else {
			cfg := xmlgen.HospitalSized(150 + 30*i)
			cfg.Seed = int64(i + 1)
			uri = fmt.Sprintf("hospital-%d.xml", i)
			xml = xmlgen.Hospital(cfg)
			query = fmt.Sprintf(`
count(with $x seeded by doc(%q)/hospital/patient[diagnosis = "hd"]
recurse $x/parents/patient[diagnosis = "hd"])`, uri)
		}
		d, err := xmldoc.ParseString(xml, uri)
		if err != nil {
			t.Fatalf("parse %s: %v", uri, err)
		}
		if err := store.Save(filepath.Join(dir, uri+store.Ext), d); err != nil {
			t.Fatal(err)
		}
		queries[i] = MustParse(query)
	}

	// Capacity 2 documents for a 6-document working set: every round of
	// goroutines forces evictions while other queries hold pins.
	st, err := OpenStore(StoreOptions{Dir: dir, MaxDocs: 2, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}

	engines := []Engine{EngineInterpreter, EngineRelational}
	// Single-threaded ground truth, one per (doc, engine).
	want := make([][]string, docCount)
	for i, q := range queries {
		want[i] = make([]string, len(engines))
		for e, engine := range engines {
			res, err := q.Eval(Options{Engine: engine, Store: st})
			if err != nil {
				t.Fatalf("doc %d engine %v: %v", i, engine, err)
			}
			want[i][e] = res.String()
		}
	}

	const workers = 12
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*rounds + r*5) % docCount
				e := (w + r) % len(engines)
				res, err := queries[i].Eval(Options{Engine: engines[e], Store: st})
				if err != nil {
					errs <- fmt.Errorf("worker %d doc %d engine %v: %w", w, i, engines[e], err)
					return
				}
				if got := res.String(); got != want[i][e] {
					errs <- fmt.Errorf("worker %d doc %d engine %v: result diverged from single-threaded run", w, i, engines[e])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := st.Cache().Stats()
	if s.Evictions == 0 {
		t.Error("cache never evicted: capacity pressure not exercised")
	}
	if s.Pinned != 0 {
		t.Errorf("%d documents still pinned after all queries closed", s.Pinned)
	}
	if s.Docs > 2 {
		t.Errorf("%d documents resident with MaxDocs=2 and no pins", s.Docs)
	}
	t.Logf("cache after run: %+v", s)
}
