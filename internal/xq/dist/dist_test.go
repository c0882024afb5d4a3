package dist

import (
	"testing"

	"repro/internal/xq/ast"
	"repro/internal/xq/parser"
)

func expr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func TestCheckRules(t *testing.T) {
	cases := []struct {
		body string
		safe bool
		rule string
	}{
		// Figure 5 positives.
		{`$x`, true, "VAR"},
		{`$x/a`, true, "STEP"},
		{`$x/a/b`, true, "STEP"},
		{`$x/child::a[b]`, true, "STEP"},
		{`$x/id(./pre)`, true, "STEP"},
		{`$x/a union $x/b`, true, "UNION"},
		{`($x/a, $x/b)`, true, "SEQ"},
		{`$x/a except doc("d.xml")/r/b`, true, "EXCEPT"},
		{`$x/a intersect doc("d.xml")/r/b`, true, "INTERSECT"},
		{`for $y in $x return $y/a`, true, "FOR2"},
		{`for $c in doc("d.xml")/r/c return $x/a`, true, "FOR1"},
		{`let $d := doc("d.xml") return $x/a`, true, "LET"},
		{`if (1 = 1) then $x/a else $x/b`, true, "IF"},
		{`doc("d.xml")/r/a`, true, "CONST"},
		{`($x/a)[b]`, true, "FILTER"},
		{`$x/a[position() = 1]`, true, "STEP"},
		{`$x/(a[last()] | b/c[position() = 2])`, true, "STEP"},
		// Blockers.
		{`if (count($x) > 2) then $x/a else ()`, false, ""},
		{`if (count($x/self::a)) then $x/* else ()`, false, ""},
		{`count($x)`, false, ""},
		{`$x union <a/>`, false, ""},
		{`doc("d.xml")/id($x)`, false, ""},
		{`($x/a)[2]`, false, ""},
		{`($x/a)[last()]`, false, ""},
		{`($x/a)[position() = 1]`, false, ""},
		{`$x/(if (position() = 1) then . else ())`, false, ""},
		{`$x/(if (last() > 1) then a else ())`, false, ""},
		{`for $y at $i in $x return $y/a`, false, ""},
		{`for $y in $x return $x/a`, false, ""},
		{`let $y := $x/a return $y/b`, false, ""},
		{`some $y in $x satisfies $y/a`, false, ""},
		{`doc("d.xml")/r/a except $x`, false, ""},
		{`$x = "v"`, false, ""},
		{`for $c in doc("d.xml")/r/c return
		    if ($c/@code = $x/pre) then $c else ()`, false, ""},
	}
	for _, c := range cases {
		res := Check(expr(t, c.body), "x", ModuleResolver(nil))
		if res.Safe != c.safe {
			t.Errorf("Check(%q) = %v (%s), want %v", c.body, res.Safe, res.Rule, c.safe)
			continue
		}
		if c.safe && c.rule != "" && res.Rule != c.rule {
			t.Errorf("Check(%q) rule = %s, want %s", c.body, res.Rule, c.rule)
		}
		if !c.safe && res.Rule == "" {
			t.Errorf("Check(%q): rejection carries no reason", c.body)
		}
	}
}

// TestCheckFollowsUserFunctions: the bidder-network shape — the recursion
// variable flows through a user-defined function call whose body is
// distributive in the corresponding parameter.
func TestCheckFollowsUserFunctions(t *testing.T) {
	m, err := parser.Parse(`
declare variable $doc := doc("auction.xml");
declare function bidder($in as node()*) as node()* {
  for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
with $x seeded by $doc//people/person[1] recurse bidder($x)`)
	if err != nil {
		t.Fatal(err)
	}
	var fp *ast.Fixpoint
	ast.Walk(m.Body, func(e ast.Expr) bool {
		if f, ok := e.(*ast.Fixpoint); ok {
			fp = f
		}
		return fp == nil
	})
	if fp == nil {
		t.Fatal("no fixpoint found")
	}
	res := Check(fp.Body, fp.Var, ModuleResolver(m))
	if !res.Safe || res.Rule != "FUN" {
		t.Fatalf("bidder($x) = %v (%s), want safe via FUN", res.Safe, res.Rule)
	}
	// Without a resolver the same call must be rejected.
	if Safe(fp.Body, fp.Var, ModuleResolver(nil)) {
		t.Fatal("bidder($x) certified without a resolver")
	}
}

// TestCheckRejectsRecursiveFunctions: a self-recursive function cannot be
// followed to a verdict and is conservatively rejected.
func TestCheckRejectsRecursiveFunctions(t *testing.T) {
	m, err := parser.Parse(`
declare function loop($in as node()*) as node()* { loop($in/a) };
with $x seeded by doc("d.xml")/r recurse loop($x)`)
	if err != nil {
		t.Fatal(err)
	}
	var fp *ast.Fixpoint
	ast.Walk(m.Body, func(e ast.Expr) bool {
		if f, ok := e.(*ast.Fixpoint); ok {
			fp = f
		}
		return fp == nil
	})
	if Safe(fp.Body, fp.Var, ModuleResolver(m)) {
		t.Fatal("self-recursive call wrongly certified")
	}
}

// TestCheckFollowsCallsToConstructors: a constructor behind a user-defined
// call rejects the body like an inline one, however indirect the call,
// also when the call's arguments are constant in $x (rule CONST alone
// would certify it) and when the functions call each other in a cycle.
// The verdict names the function that constructs.
func TestCheckFollowsCallsToConstructors(t *testing.T) {
	cases := []struct{ prolog, body, reason string }{
		{``, `$x/b | <c/>/self::b`, "node constructor in recursion body"},
		{`declare function f($n) { <c/> };`, `$x/b | f(1)/self::b`, "node constructor in f()"},
		{`declare function f($n) { <c/> }; declare function g($n) { f($n) };`,
			`$x/b | g(1)/self::b`, "node constructor in f()"},
		{`declare function f($n) { if ($n) then g($n) else <c/> }; declare function g($n) { f($n) };`,
			`$x/b | g(1)/self::b`, "node constructor in f()"},
		{`declare function f($n) { <c/> };`, `for $y in $x return $y/b[f(1)]`, "node constructor in f()"},
		// A constructor-free call searched after the constructing one
		// leaves the verdict standing.
		{`declare function f($n) { <c/> }; declare function h($n) { $n };`,
			`$x/b | f(1) | h(1)`, "node constructor in f()"},
		{`declare function f($n) { <c/> }; declare function h($n) { $n }; declare function g($n) { (f($n), h($n)) };`,
			`$x/b | g(1)/self::c`, "node constructor in f()"},
	}
	for _, c := range cases {
		m, err := parser.Parse(c.prolog + ` 1`)
		if err != nil {
			t.Fatal(err)
		}
		res := Check(expr(t, c.body), "x", ModuleResolver(m))
		if res.Safe || res.Rule != c.reason {
			t.Errorf("Check(%q) = %v (%s), want unsafe (%s)", c.body, res.Safe, res.Rule, c.reason)
		}
	}
	// A cycle of functions that construct nothing is searched once and
	// leaves the verdict to the rules.
	m, err := parser.Parse(`declare function f($n) { g($n) }; declare function g($n) { f($n) }; 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res := Check(expr(t, `$x/b | f(1)/self::b`), "x", ModuleResolver(m)); !res.Safe {
		t.Errorf("constructor-free cycle rejected: %s", res.Rule)
	}
}

func TestHintCertifiesViaFOR2(t *testing.T) {
	body := expr(t, `if (count($x) >= 1) then $x/n else ()`)
	if Safe(body, "x", ModuleResolver(nil)) {
		t.Fatal("pre-hint body should be rejected")
	}
	hinted := Hint(body, "x")
	res := Check(hinted, "x", ModuleResolver(nil))
	if !res.Safe || res.Rule != "FOR2" {
		t.Fatalf("hinted body = %v (%s), want safe via FOR2", res.Safe, res.Rule)
	}
	// The rewrite must bind a variable unused in the body (no capture).
	f, ok := hinted.(*ast.For)
	if !ok {
		t.Fatalf("Hint produced %T, want *ast.For", hinted)
	}
	if ast.IsFree(f.Body, "x") {
		t.Fatal("hinted body still mentions $x")
	}
}

func TestHintAvoidsCapture(t *testing.T) {
	body := expr(t, `for $y in doc("d.xml")/r return $x/a`)
	hinted := Hint(body, "x")
	f := hinted.(*ast.For)
	if f.Var == "y" {
		t.Fatal("Hint reused a variable bound inside the body")
	}
	if !Safe(hinted, "x", ModuleResolver(nil)) {
		t.Fatal("capture-avoiding hint not certified")
	}
}
