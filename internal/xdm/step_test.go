package xdm_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
	"repro/internal/xmlgen"
	"repro/internal/xq/ast"
)

var allAxes = []ast.Axis{
	ast.AxisChild, ast.AxisDescendant, ast.AxisAttribute, ast.AxisSelf,
	ast.AxisDescendantOrSelf, ast.AxisFollowingSibling, ast.AxisFollowing,
	ast.AxisParent, ast.AxisAncestor, ast.AxisPrecedingSibling,
	ast.AxisPreceding, ast.AxisAncestorOrSelf,
}

// handDoc builds a document with every node kind, attributes on nested
// elements, and one section ("big") whose subtree is far larger than the
// kernel's probe window while its neighbours stay far below it:
//
//	<?top go?><r a="1" id="r"><!--c1--><x b="2">t1<y b="3" c="4"/><?pi v?></x>
//	mid<big>(<k n="i"><y/>v</k> × 150, a <k> child every 10th)</big><z>t2<k/>(<w/> × 5)</z><w/></r><!--tail-->
//
// From r, child::k sees a dense window (walk), child::big a sparse one
// (probe), and child::w more than childProbeFanout candidates that are
// still rare for the window (probe, filtered by parent).
func handDoc() *xdm.Document {
	b := xdm.NewBuilder("hand.xml")
	b.PI("top", "go")
	b.StartElement("r")
	b.Attribute("a", "1")
	b.Attribute("id", "r")
	b.Comment("c1")
	b.StartElement("x")
	b.Attribute("b", "2")
	b.Text("t1")
	b.StartElement("y")
	b.Attribute("b", "3")
	b.Attribute("c", "4")
	b.EndElement()
	b.PI("pi", "v")
	b.EndElement()
	b.Text("mid")
	b.StartElement("big")
	for i := 0; i < 150; i++ {
		b.StartElement("k")
		b.Attribute("n", fmt.Sprint(i))
		b.StartElement("y")
		b.EndElement()
		b.Text("v")
		if i%10 == 0 {
			b.StartElement("k")
			b.EndElement()
		}
		b.EndElement()
	}
	b.EndElement()
	b.StartElement("z")
	b.Text("t2")
	b.StartElement("k")
	b.EndElement()
	for i := 0; i < 5; i++ {
		b.StartElement("w")
		b.EndElement()
	}
	b.EndElement()
	b.StartElement("w")
	b.EndElement()
	b.EndElement()
	b.Comment("tail")
	return b.Done()
}

// oracleAxis lists the nodes on axis from context c, in axis order, straight
// from the XPath axis definitions over parent links and preorder ranks: one
// membership predicate per axis, evaluated for every node of the document.
func oracleAxis(d *xdm.Document, c xdm.NodeRef, axis ast.Axis) []int32 {
	at := func(pre int32) xdm.NodeRef { return xdm.NodeRef{D: d, Pre: pre} }
	parentOf := func(n xdm.NodeRef) int32 {
		if p, ok := n.Parent(); ok {
			return p.Pre
		}
		return -1
	}
	isAttr := func(n xdm.NodeRef) bool { return n.Kind() == xdm.AttributeNode }
	// ancestor(a, b): a is reached from b by one or more parent links.
	ancestor := func(a, b xdm.NodeRef) bool {
		for p := parentOf(b); p >= 0; p = parentOf(at(p)) {
			if p == a.Pre {
				return true
			}
		}
		return false
	}
	var out []int32
	for pre := int32(0); pre < int32(d.Len()); pre++ {
		n := at(pre)
		var on bool
		switch axis {
		case ast.AxisSelf:
			on = pre == c.Pre
		case ast.AxisChild:
			on = parentOf(n) == c.Pre && !isAttr(n)
		case ast.AxisAttribute:
			on = parentOf(n) == c.Pre && isAttr(n) && c.Kind() == xdm.ElementNode
		case ast.AxisDescendant:
			on = ancestor(c, n) && !isAttr(n)
		case ast.AxisDescendantOrSelf:
			on = pre == c.Pre || ancestor(c, n) && !isAttr(n)
		case ast.AxisParent:
			on = pre == parentOf(c)
		case ast.AxisAncestor:
			on = ancestor(n, c)
		case ast.AxisAncestorOrSelf:
			on = pre == c.Pre || ancestor(n, c)
		case ast.AxisFollowingSibling:
			on = !isAttr(c) && !isAttr(n) && parentOf(c) >= 0 && parentOf(n) == parentOf(c) && pre > c.Pre
		case ast.AxisPrecedingSibling:
			on = !isAttr(c) && !isAttr(n) && parentOf(c) >= 0 && parentOf(n) == parentOf(c) && pre < c.Pre
		case ast.AxisFollowing:
			on = pre > c.Pre && !ancestor(c, n) && !isAttr(n)
		case ast.AxisPreceding:
			on = pre < c.Pre && !ancestor(n, c) && !isAttr(n)
		}
		if on {
			out = append(out, pre)
		}
	}
	if axis.Reverse() {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// oracleTest is the node-test definition: name tests select the axis's
// principal node kind (attribute on the attribute axis, element elsewhere).
func oracleTest(n xdm.NodeRef, t ast.NodeTest, axis ast.Axis) bool {
	named := func(kind xdm.NodeKind) bool {
		return n.Kind() == kind && (t.Name == "" || t.Name == "*" || n.Name() == t.Name)
	}
	switch t.Kind {
	case ast.TestName:
		if axis == ast.AxisAttribute {
			return named(xdm.AttributeNode)
		}
		return named(xdm.ElementNode)
	case ast.TestAnyKind:
		return true
	case ast.TestText:
		return n.Kind() == xdm.TextNode
	case ast.TestComment:
		return n.Kind() == xdm.CommentNode
	case ast.TestPI:
		return n.Kind() == xdm.PINode && (t.Name == "" || n.Name() == t.Name)
	case ast.TestElement:
		return named(xdm.ElementNode)
	case ast.TestAttr:
		return named(xdm.AttributeNode)
	case ast.TestDocument:
		return n.Kind() == xdm.DocumentNode
	}
	return false
}

// stepTests covers the eight test kinds, with names that are present,
// absent, and wild for the kinds that take one.
func stepTests(present []string) []ast.NodeTest {
	tests := []ast.NodeTest{
		{Kind: ast.TestAnyKind}, {Kind: ast.TestText}, {Kind: ast.TestComment},
		{Kind: ast.TestDocument}, {Kind: ast.TestPI}, {Kind: ast.TestPI, Name: "pi"},
		{Kind: ast.TestPI, Name: "absent"},
	}
	for _, kind := range []ast.TestKind{ast.TestName, ast.TestElement, ast.TestAttr} {
		tests = append(tests, ast.NodeTest{Kind: kind, Name: "*"}, ast.NodeTest{Kind: kind, Name: "absent"})
		for _, name := range present {
			tests = append(tests, ast.NodeTest{Kind: kind, Name: name})
		}
	}
	return append(tests, ast.NodeTest{Kind: ast.TestElement}, ast.NodeTest{Kind: ast.TestAttr})
}

func parseGen(t *testing.T, src, uri string) *xdm.Document {
	t.Helper()
	d, err := xmldoc.ParseString(src, uri)
	if err != nil {
		t.Fatalf("%s: %v", uri, err)
	}
	return d
}

// TestStepMatchesAxisDefinitions pins the kernel to the oracle: every
// context node × 12 axes × every test, walked (noIndex) and probed. The
// documents put subtrees on both sides of the probe window, and the counter
// checks prove both the probe and the fallback branch ran — and that
// noIndex never touches the index.
func TestStepMatchesAxisDefinitions(t *testing.T) {
	docs := []struct {
		d     *xdm.Document
		names []string
	}{
		{handDoc(), []string{"k", "y", "w", "b", "n"}},
		{parseGen(t, xmlgen.Curriculum(xmlgen.CurriculumSized(150)), "curriculum.xml"), []string{"course", "pre_code", "code"}},
		{parseGen(t, xmlgen.Hospital(xmlgen.HospitalSized(120)), "hospital.xml"), []string{"patient", "parent", "id"}},
	}
	for _, doc := range docs {
		d := doc.d
		tests := stepTests(doc.names)
		for _, noIndex := range []bool{true, false} {
			probes0, fallbacks0 := xdm.IndexCounters()
			for pre := int32(0); pre < int32(d.Len()); pre++ {
				c := xdm.NodeRef{D: d, Pre: pre}
				for _, axis := range allAxes {
					on := oracleAxis(d, c, axis)
					for _, test := range tests {
						var want []int32
						for _, p := range on {
							if oracleTest(xdm.NodeRef{D: d, Pre: p}, test, axis) {
								want = append(want, p)
							}
						}
						got := xdm.Step([]int32{-7}, c, axis, test, noIndex)
						if got[0] != -7 || !slices.Equal(got[1:], want) {
							t.Fatalf("%s: %v/%s::%s noIndex=%v:\n got %v\nwant %v",
								d.URI, c, axis, test, noIndex, got, want)
						}
					}
				}
			}
			probes, fallbacks := xdm.IndexCounters()
			probes, fallbacks = probes-probes0, fallbacks-fallbacks0
			if noIndex && (probes != 0 || fallbacks != 0) {
				t.Errorf("%s: noIndex moved the index counters (%d probes, %d fallbacks)", d.URI, probes, fallbacks)
			}
			if !noIndex && (probes == 0 || fallbacks == 0) {
				t.Errorf("%s: want both probed and declined steps, got %d probes, %d fallbacks", d.URI, probes, fallbacks)
			}
		}
	}
}

// TestMatchesTestAgreesWithDefinition pins the exported matcher (the
// interpreter's predicate arena walk calls it) to the same definition.
func TestMatchesTestAgreesWithDefinition(t *testing.T) {
	d := handDoc()
	for pre := int32(0); pre < int32(d.Len()); pre++ {
		n := xdm.NodeRef{D: d, Pre: pre}
		for _, axis := range []ast.Axis{ast.AxisChild, ast.AxisAttribute} {
			for _, test := range stepTests([]string{"k", "b"}) {
				if got, want := n.MatchesTest(test, axis), oracleTest(n, test, axis); got != want {
					t.Fatalf("%v %s::%s: MatchesTest = %v, want %v", n, axis, test, got, want)
				}
			}
		}
	}
}

// TestStepAxisOrderPins keeps the hand-checked expectations of the retired
// NodeRef axis methods: counts on a tiny tree, reverse axes nearest-first,
// and following:: from an attribute context (its owner's content follows it).
func TestStepAxisOrderPins(t *testing.T) {
	d := parseGen(t, `<r a="1"><x>t1<y b="2"/></x>mid<z>t2</z></r>`, "pins.xml")
	find := func(name string) xdm.NodeRef {
		for pre := int32(0); pre < int32(d.Len()); pre++ {
			if n := (xdm.NodeRef{D: d, Pre: pre}); n.Name() == name {
				return n
			}
		}
		t.Fatalf("no node named %q", name)
		return xdm.NodeRef{}
	}
	names := func(c xdm.NodeRef, axis ast.Axis) string {
		s := ""
		for _, p := range xdm.Step(nil, c, axis, ast.NodeTest{Kind: ast.TestAnyKind}, false) {
			n := xdm.NodeRef{D: d, Pre: p}
			switch n.Kind() {
			case xdm.TextNode:
				s += " '" + n.Value() + "'"
			case xdm.DocumentNode:
				s += " /"
			default:
				s += " " + n.Name()
			}
		}
		return s
	}
	for _, c := range []struct {
		ctx  string
		axis ast.Axis
		want string
	}{
		{"r", ast.AxisDescendant, " x 't1' y 'mid' z 't2'"},
		{"r", ast.AxisDescendantOrSelf, " r x 't1' y 'mid' z 't2'"},
		{"y", ast.AxisAncestor, " x r /"},
		{"x", ast.AxisFollowingSibling, " 'mid' z"},
		{"z", ast.AxisPrecedingSibling, " 'mid' x"},
		{"x", ast.AxisFollowing, " 'mid' z 't2'"},
		{"z", ast.AxisPreceding, " 'mid' y 't1' x"},
		{"a", ast.AxisFollowing, " x 't1' y 'mid' z 't2'"},
		{"b", ast.AxisFollowing, " 'mid' z 't2'"},
		{"a", ast.AxisFollowingSibling, ""},
	} {
		if got := names(find(c.ctx), c.axis); got != c.want {
			t.Errorf("%s/%s::node() =%s, want%s", c.ctx, c.axis, got, c.want)
		}
	}
}

// TestStepDoesNotAllocate pins the kernel's contract: with room in dst, no
// axis allocates, walked or probed.
func TestStepDoesNotAllocate(t *testing.T) {
	d := handDoc()
	d.Index() // the lazy index build is a one-time cost, not a step cost
	mid := xdm.NodeRef{D: d, Pre: int32(d.Len() / 2)}
	dst := make([]int32, 0, d.Len())
	for _, c := range []xdm.NodeRef{d.Root(), mid} {
		for _, axis := range allAxes {
			for _, test := range []ast.NodeTest{{Kind: ast.TestAnyKind}, {Kind: ast.TestName, Name: "k"}} {
				if n := testing.AllocsPerRun(10, func() { dst = xdm.Step(dst[:0], c, axis, test, false) }); n != 0 {
					t.Errorf("%v/%s::%s: %v allocs per step", c, axis, test, n)
				}
			}
		}
	}
}
