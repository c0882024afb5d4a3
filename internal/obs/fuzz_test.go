package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzPromText: ParsePromText answers any bytes with a map or an error and
// never panics, and a map it returns, written back one `name value` line
// per series, parses to the same map (a NaN value matching NaN). Seeds are
// a registry's own exposition and the shapes the parser treats specially:
// comments, blank lines, runs of blanks, CRLF line ends and the special
// float spellings.
//
//	go test -run '^$' -fuzz FuzzPromText -fuzztime 30s ./internal/obs
func FuzzPromText(f *testing.F) {
	r := NewRegistry()
	r.CounterVec("xqd_queries_total", "Queries by outcome.", "outcome").With("ok").Add(5)
	r.Histogram("xqd_queue_wait_seconds", "Admission queue wait.", []float64{0.25, 1}).Observe(0.5)
	r.GaugeFunc("xqd_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{b.String(), "# HELP x y\n\nx 4\n", "a  b\t -Inf\r\n", "n NaN\nx +Inf\nx 2\n", "lonely\n", "x 0x1p-2\n"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ParsePromText(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out strings.Builder
		for name, v := range m {
			out.WriteString(name + " " + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
		}
		back, err := ParsePromText(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-rendered series do not parse: %v\n%q", err, out.String())
		}
		if len(back) != len(m) {
			t.Fatalf("%d series parse back as %d:\n%q", len(m), len(back), out.String())
		}
		for name, v := range m {
			if w, ok := back[name]; !ok || w != v && !(math.IsNaN(v) && math.IsNaN(w)) {
				t.Fatalf("series %q = %v parses back as %v (present %v)", name, v, w, ok)
			}
		}
	})
}
