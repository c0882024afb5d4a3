package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestReportsEachSiteAndEachEnginesPick drives the CLI in-process: every
// site, prolog variables included, carries its own verdicts, and each
// engine's auto pick follows its own check (the interpreter the syntactic
// one, the relational engine the extended algebraic one).
func TestReportsEachSiteAndEachEnginesPick(t *testing.T) {
	for _, c := range []struct{ query, want string }{
		{`declare function local:f($s) { with $x seeded by $s recurse $x/b };
(local:f(doc("a.xml")/a), with $y seeded by doc("a.xml")/a recurse if (count($y) > 2) then () else $y/b)`,
			`fixpoint 1 (recursion variable $x):
  syntactic ds$x(·):  true  (rule STEP)
  algebraic push-up:  strict=true extended=true
  auto mode runs:     Delta (interp), Delta (rel)
fixpoint 2 (recursion variable $y):
  syntactic ds$x(·):  false  (if-condition inspects $y)
  algebraic push-up:  strict=false extended=false
  auto mode runs:     Naive (interp), Naive (rel)
`},
		{`declare variable $v := with $z seeded by doc("a.xml")/a recurse if (count($z) > 2) then () else $z/b;
($v, with $x seeded by doc("a.xml")/a recurse $x/b)`,
			`fixpoint 1 (recursion variable $z):
  syntactic ds$x(·):  false  (if-condition inspects $z)
  algebraic push-up:  strict=false extended=false
  auto mode runs:     Naive (interp), Naive (rel)
fixpoint 2 (recursion variable $x):
  syntactic ds$x(·):  true  (rule STEP)
  algebraic push-up:  strict=true extended=true
  auto mode runs:     Delta (interp), Delta (rel)
`},
		{`with $x seeded by doc("a.xml")/a recurse doc("a.xml")//b[. = $x]`,
			`fixpoint 1 (recursion variable $x):
  syntactic ds$x(·):  false  ($x occurs on the right of '/' (evaluated against the whole set))
  algebraic push-up:  strict=true extended=true
  auto mode runs:     Naive (interp), Delta (rel)
`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-q", c.query}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		if stdout.String() != c.want {
			t.Errorf("%s:\n--- got ---\n%s--- want ---\n%s", c.query, stdout.String(), c.want)
		}
	}
}

func TestRejectsMissingQuery(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
		t.Errorf("no query: exit %d, stderr %q", code, stderr.String())
	}
}

// TestExplainShowsTheRelationalPick: -explain renders a site as µ∆ exactly
// when the report says rel's auto mode runs Delta there.
func TestExplainShowsTheRelationalPick(t *testing.T) {
	for query, want := range map[string]string{
		`with $x seeded by doc("a.xml")/a recurse $x/b`:                                 "\nmu-delta {",
		`with $x seeded by doc("a.xml")/a recurse if (count($x) > 2) then () else $x/b`: "\nmu {",
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-explain", "-q", query}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("%s: plan lacks %q:\n%s", query, want, stdout.String())
		}
	}
}

// TestValueJoinSiteStaysDelta: the body `doc("a.xml")//b[. = $x]` compiles
// its predicate to a value join against the hoisted candidates, and the
// site keeps both algebraic certificates, so rel still runs it as µ∆.
func TestValueJoinSiteStaysDelta(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-explain", "-q", `with $x seeded by doc("a.xml")/a recurse doc("a.xml")//b[. = $x]`}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"strict=true extended=true", "Naive (interp), Delta (rel)", "\nmu-delta {", "join[key=fkey]"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "cross {") && strings.HasSuffix(line, " rec}") {
			t.Errorf("a cross reads the recursion:\n%s", out)
		}
	}
}
