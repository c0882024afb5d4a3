package ifpxq

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

// setting is an evaluation setting with one text form.
type setting interface {
	comparable
	String() string
}

// checkTextForm asserts that each value prints as its key and parses back,
// that every alias parses to its value, and that an unknown text fails
// with an error naming it.
func checkTextForm[T setting](t *testing.T, parse func(string) (T, error), printed, aliases map[string]T) {
	t.Helper()
	for text, v := range printed {
		if v.String() != text {
			t.Errorf("%v prints %q, want %q", v, v.String(), text)
		}
		aliases[text] = v
	}
	for text, want := range aliases {
		if got, err := parse(text); err != nil || got != want {
			t.Errorf("parse(%q) = %v, %v; want %v", text, got, err, want)
		}
	}
	if _, err := parse("bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("parse(\"bogus\") = %v, want an error naming the value", err)
	}
}

// TestSettingsTextForms: every engine, mode and optimizer level has one
// text form that parses back, the long engine names parse, the empty text
// is the default, and the engine spellings are xqd's
// xqd_query_seconds{engine=…} labels and the bench runner's cell names.
func TestSettingsTextForms(t *testing.T) {
	checkTextForm(t, ParseEngine,
		map[string]Engine{"interp": EngineInterpreter, "rel": EngineRelational},
		map[string]Engine{"interpreter": EngineInterpreter, "relational": EngineRelational, "": EngineInterpreter})
	checkTextForm(t, ParseMode,
		map[string]Mode{"auto": ModeAuto, "naive": ModeNaive, "delta": ModeDelta},
		map[string]Mode{"": ModeAuto})
	checkTextForm(t, ParseOptLevel,
		map[string]OptLevel{"0": Opt0, "1": Opt1},
		map[string]OptLevel{"": Opt1})
	if _, err := ParseOptLevel("2"); err == nil || !strings.Contains(err.Error(), `"2"`) {
		t.Errorf("ParseOptLevel(\"2\") = %v, want an error naming the level", err)
	}
	if EngineInterpreter.String() != bench.EngineInterp || EngineRelational.String() != bench.EngineRelational {
		t.Errorf("engine spellings %v/%v differ from the bench cells' %s/%s",
			EngineInterpreter, EngineRelational, bench.EngineInterp, bench.EngineRelational)
	}
	var zero Options
	if zero.Engine != EngineInterpreter || zero.Mode != ModeAuto || zero.Opt != Opt1 {
		t.Errorf("zero Options = %v/%v/-O%v, want interp/auto/-O1", zero.Engine, zero.Mode, zero.Opt)
	}
}
