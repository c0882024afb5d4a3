package parser_test

import (
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/difftest"
	"repro/internal/xq/parser"
)

// FuzzParse: Parse answers every input with a module or a *ParseError and
// never panics. Parse turns its own *ParseError panics into errors and
// re-panics anything else, so a crash the fuzzer finds is a parser bug (an
// index out of range, a nil dereference), never a malformed-query report.
// Seeds are the four Table 2 queries and the differential harness's
// deterministic query block.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s ./internal/xq/parser
func FuzzParse(f *testing.F) {
	for _, q := range []string{bench.BidderNetworkQuery, bench.DialogsQuery, bench.CurriculumQuery, bench.HospitalQuery} {
		f.Add(q)
	}
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(difftest.Generate(seed).Query)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := parser.Parse(src)
		var pe *parser.ParseError
		switch {
		case err == nil && m == nil:
			t.Fatalf("Parse(%q) returned neither a module nor an error", src)
		case err != nil && !errors.As(err, &pe):
			t.Fatalf("Parse(%q) failed with %T, not a *ParseError: %v", src, err, err)
		}
	})
}
