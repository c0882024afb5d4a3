package difftest

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	ifpxq "repro"
	"repro/internal/algebra"
	"repro/internal/regularxpath"
	"repro/internal/xq/ast"
	"repro/internal/xq/dist"
	"repro/internal/xq/parser"
)

// TestCertificateParity checks, by brute force, the verdicts both engines'
// tabled µ and Delta rest on, for every fixpoint body the generator emits
// over a fixed seed block:
//
//   - soundness: a body that dist.Check or CheckDistributive (strict or
//     extended) accepts satisfies e(S) = ∪_{n∈S} e({n}) on random node
//     sets S of the case's document, evaluated by the interpreter's Naïve;
//   - iteration-freedom: a body compiled as IterationFree answers each
//     node the same under two different bindings of every other variable
//     in scope and two different focus items.
//
// A body's other free variables take values from their binding clauses.
// Bodies every trial finds distributive but no certificate accepts are
// logged, not failed: they are where the certificates are incomplete.
func TestCertificateParity(t *testing.T) {
	checked := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		checkCertificates(t, Generate(seed), checked)
	}
	t.Logf("verdicts exercised: %v", checked)
	for _, v := range []string{"trials", "accepted", "rejected", "iteration-free", "iteration-bound"} {
		if checked[v] == 0 {
			t.Errorf("no body was %s: the seed block does not exercise that verdict", v)
		}
	}
}

// certSite is one fixpoint body with its verdicts.
type certSite struct {
	body        string // formatted body, with $x the recursion variable
	lets        string // bindings of the body's other non-global free variables
	syntactic   bool
	strict, ext bool
	iterFree    bool
}

func (s certSite) accepted() []string {
	var by []string
	for _, c := range []struct {
		name string
		ok   bool
	}{{"dist.Check", s.syntactic}, {"CheckDistributive strict", s.strict}, {"CheckDistributive extended", s.ext}} {
		if c.ok {
			by = append(by, c.name)
		}
	}
	return by
}

func checkCertificates(t *testing.T, c Case, checked map[string]int) {
	t.Helper()
	m := parseCase(t, c)
	header := strings.TrimSuffix(ast.FormatModule(&ast.Module{Funcs: m.Funcs, Vars: m.Vars, Body: &ast.Seq{}}), "()")
	rng := rand.New(rand.NewSource(c.Seed))
	eval := func(body string) (string, error) {
		q, err := ifpxq.Parse(header + body)
		if err != nil {
			t.Fatalf("seed %d: probe does not parse: %v\n%s", c.Seed, err, header+body)
		}
		res, err := q.Eval(ifpxq.Options{Engine: ifpxq.EngineInterpreter, Mode: ifpxq.ModeNaive,
			Docs: ifpxq.DocsFromStrings(map[string]string{c.URI: c.XML})})
		if err != nil {
			return "", err
		}
		return res.String(), nil
	}
	fixpointScopes(m.Body, map[string]ast.Expr{}, func(fp *ast.Fixpoint, scope map[string]ast.Expr) {
		s := certSite{body: ast.Format(ast.Substitute(fp.Body, fp.Var, &ast.VarRef{Name: "x"}))}
		locals := slices.Sorted(maps.Keys(scope))
		// The body's locally bound free variables take one value of their
		// binding clause, which must read no other local.
		for _, v := range locals {
			if !ast.IsFree(fp.Body, v) || v == fp.Var {
				continue
			}
			if scope[v] == nil || !readsOnly(scope[v], globalNames(m)) {
				t.Logf("seed %d: no value for $%s, body %s skipped", c.Seed, v, s.body)
				return
			}
			s.lets += fmt.Sprintf("let $%s := (%s)[%d] return ", v, ast.Format(scope[v]), 1+rng.Intn(2))
		}
		s.syntactic = dist.Safe(fp.Body, fp.Var, dist.ModuleResolver(m))
		probe, err := parser.Parse(header + s.lets + "with $x seeded by () recurse " + s.body)
		if err != nil {
			t.Fatalf("seed %d: %v", c.Seed, err)
		}
		if plan, err := algebra.CompileModule(probe); err == nil {
			site := plan.Mus[len(plan.Mus)-1]
			s.strict, s.ext, s.iterFree = site.Distributive, site.DistributiveExt, site.IterationFree
		}
		distributive := true
		for trial := 0; trial < 3; trial++ {
			k := 2 + rng.Intn(3)
			out, err := eval(fmt.Sprintf(`%slet $cert_s := doc(%q)//*[position() mod %d = %d] return
let $cert_whole := (let $x := $cert_s return %s) | () return
let $cert_each := (for $cert_n in $cert_s return (let $x := $cert_n return %s)) | () return
(count($cert_whole), count($cert_each), count($cert_whole | $cert_each))`, s.lets, c.URI, k, rng.Intn(k), s.body, s.body))
			if err != nil {
				continue // a body may fail on nodes no fixpoint would feed it
			}
			checked["trials"]++
			if f := strings.Fields(out); len(f) != 3 || f[0] != f[1] || f[1] != f[2] {
				distributive = false
				if by := s.accepted(); len(by) > 0 {
					t.Errorf("seed %d: %s accept %s, but |e(S)| |∪ e({n})| |both| = %s", c.Seed, strings.Join(by, ", "), s.body, out)
				}
			}
		}
		if len(s.accepted()) > 0 {
			checked["accepted"]++
		} else {
			checked["rejected"]++
			if distributive {
				t.Logf("seed %d: distributive on every trial, no certificate: %s", c.Seed, s.body)
			}
		}
		if !s.iterFree {
			checked["iteration-bound"]++
			return
		}
		checked["iteration-free"]++
		// Each node's answer, as document ranks, under two bindings of every
		// local in scope and two focus items.
		k := 2 + rng.Intn(2)
		var outs [2]string
		for i := range outs {
			var lets string
			for _, v := range locals {
				if i == 0 {
					lets += fmt.Sprintf("let $%s := %d return ", v, 1+rng.Intn(3))
				} else {
					lets += fmt.Sprintf("let $%s := doc(%q)//*[%d] return ", v, c.URI, 1+rng.Intn(3))
				}
			}
			out, err := eval(fmt.Sprintf(`%[1]s(doc(%[2]q)//*)[%[3]d]/(
for $cert_n in doc(%[2]q)//*[position() mod %[4]d = 1]
return (-1, (let $x := $cert_n return %[5]s)/(count(preceding::node()) + count(ancestor::node()))))`,
				lets, c.URI, 1+i, k, s.body))
			if outs[i] = out; err != nil {
				outs[i] = "error " + err.Error()
			}
		}
		if outs[0] != outs[1] {
			t.Errorf("seed %d: %s is compiled iteration-free, but answers differently under other bindings:\n%.200s\n%.200s",
				c.Seed, s.body, outs[0], outs[1])
		}
	})
}

// fixpointScopes visits every fixpoint under e with the local variables in
// scope at it, each mapped to the expression it ranges over (nil for a
// positional variable).
func fixpointScopes(e ast.Expr, scope map[string]ast.Expr, visit func(*ast.Fixpoint, map[string]ast.Expr)) {
	bind := func(name string, val ast.Expr) map[string]ast.Expr {
		inner := maps.Clone(scope)
		inner[name] = val
		return inner
	}
	switch x := e.(type) {
	case nil:
	case *ast.For:
		fixpointScopes(x.In, scope, visit)
		inner := bind(x.Var, x.In)
		if x.Pos != "" {
			inner[x.Pos] = nil
		}
		fixpointScopes(x.Body, inner, visit)
	case *ast.Let:
		fixpointScopes(x.Value, scope, visit)
		fixpointScopes(x.Body, bind(x.Var, x.Value), visit)
	case *ast.Quantified:
		fixpointScopes(x.In, scope, visit)
		fixpointScopes(x.Cond, bind(x.Var, x.In), visit)
	case *ast.Fixpoint:
		visit(x, scope)
		fixpointScopes(x.Seed, scope, visit)
		fixpointScopes(x.Body, bind(x.Var, nil), visit)
	default:
		for _, k := range ast.Children(e) {
			fixpointScopes(k, scope, visit)
		}
	}
}

func globalNames(m *ast.Module) map[string]bool {
	out := map[string]bool{}
	for _, v := range m.Vars {
		out[v.Name] = true
	}
	return out
}

// parseCase parses a case's query into a module; a Regular XPath case
// becomes the module of its translated expression.
func parseCase(t *testing.T, c Case) *ast.Module {
	t.Helper()
	if c.RegularXPath {
		p, err := regularxpath.Parse(c.Query)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", c.Seed, c.Query, err)
		}
		return &ast.Module{Body: p.Expr()}
	}
	m, err := parser.Parse(c.Query)
	if err != nil {
		t.Fatalf("seed %d: parse %q: %v", c.Seed, c.Query, err)
	}
	return m
}

// readsOnly reports whether every free variable of e is in vars.
func readsOnly(e ast.Expr, vars map[string]bool) bool {
	for v := range ast.FreeVars(e) {
		if !vars[v] {
			return false
		}
	}
	return true
}
