package xdm

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildTestDoc constructs <r a="1"><x>t1<y b="2"/></x>mid<z>t2</z></r>
// and returns the document plus named node refs.
func buildTestDoc(t testing.TB) (*Document, map[string]NodeRef) {
	t.Helper()
	b := NewBuilder("test.xml")
	b.StartElement("r")
	b.Attribute("a", "1")
	b.StartElement("x")
	b.Text("t1")
	b.StartElement("y")
	b.Attribute("b", "2")
	b.EndElement()
	b.EndElement()
	b.Text("mid")
	b.StartElement("z")
	b.Text("t2")
	b.EndElement()
	b.EndElement()
	d := b.Done()
	refs := map[string]NodeRef{"doc": d.Root()}
	for pre := int32(1); pre < int32(d.Len()); pre++ {
		n := NodeRef{d, pre}
		switch {
		case n.Kind() == ElementNode:
			refs[n.Name()] = n
		case n.Kind() == TextNode:
			refs["text:"+n.Value()] = n
		case n.Kind() == AttributeNode:
			refs["@"+n.Name()] = n
		}
	}
	return d, refs
}

func TestBuilderStructure(t *testing.T) {
	d, refs := buildTestDoc(t)
	if d.Len() != 9 { // doc, r, @a, x, t1, y, @b, mid, z, t2 → 10? count below
		// nodes: doc(0) r(1) @a(2) x(3) t1(4) y(5) @b(6) mid(7) z(8) t2(9)
		if d.Len() != 10 {
			t.Fatalf("node count = %d, want 10", d.Len())
		}
	}
	r := refs["r"]
	if r.Level() != 1 {
		t.Errorf("level(r) = %d, want 1", r.Level())
	}
	if got := len(r.Children()); got != 3 { // x, mid, z
		t.Errorf("children(r) = %d, want 3", got)
	}
	if got := len(r.Attributes()); got != 1 {
		t.Errorf("attributes(r) = %d, want 1", got)
	}
	if v, ok := r.Attribute("a"); !ok || v != "1" {
		t.Errorf("r/@a = %q, %v", v, ok)
	}
	if got := r.StringValue(); got != "t1midt2" {
		t.Errorf("string(r) = %q, want t1midt2", got)
	}
	if p, ok := refs["y"].Parent(); !ok || !p.Same(refs["x"]) {
		t.Errorf("parent(y) != x")
	}
}

func TestIsAncestorOf(t *testing.T) {
	_, refs := buildTestDoc(t)
	if r, y := refs["r"], refs["y"]; !r.IsAncestorOf(y) || y.IsAncestorOf(r) {
		t.Errorf("IsAncestorOf wrong")
	}
}

func TestDocumentOrderAcrossDocs(t *testing.T) {
	d1, _ := buildTestDoc(t)
	d2, _ := buildTestDoc(t)
	if !d1.Root().Before(d2.Root()) {
		t.Errorf("earlier document should order first")
	}
	if d1.Root().Same(d2.Root()) {
		t.Errorf("distinct documents compare identical")
	}
}

func TestDDOAndSetOps(t *testing.T) {
	_, refs := buildTestDoc(t)
	x, y, z := refs["x"], refs["y"], refs["z"]
	seq := NodeSeq([]NodeRef{z, x, y, x, z})
	ddo, err := DDO(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(ddo) != 3 || !ddo[0].Node().Same(x) || !ddo[1].Node().Same(y) || !ddo[2].Node().Same(z) {
		t.Errorf("ddo order wrong: %v", ddo)
	}
	u, _ := Union(NodeSeq([]NodeRef{z}), NodeSeq([]NodeRef{x, z}))
	if len(u) != 2 || !u[0].Node().Same(x) {
		t.Errorf("union wrong: %v", u)
	}
	e, _ := Except(NodeSeq([]NodeRef{x, y, z}), NodeSeq([]NodeRef{y}))
	if len(e) != 2 {
		t.Errorf("except wrong: %v", e)
	}
	i, _ := Intersect(NodeSeq([]NodeRef{x, y}), NodeSeq([]NodeRef{y, z}))
	if len(i) != 1 || !i[0].Node().Same(y) {
		t.Errorf("intersect wrong: %v", i)
	}
	eq, _ := SetEqual(NodeSeq([]NodeRef{x, y, x}), NodeSeq([]NodeRef{y, x}))
	if !eq {
		t.Errorf("set-equality must disregard duplicates and order")
	}
	if _, err := DDO(Sequence{NewInteger(1)}); err == nil {
		t.Errorf("ddo over atomics must fail")
	}
}

func TestEBV(t *testing.T) {
	_, refs := buildTestDoc(t)
	cases := []struct {
		in   Sequence
		want bool
		err  bool
	}{
		{nil, false, false},
		{Sequence{NewNode(refs["x"])}, true, false},
		{Sequence{NewNode(refs["x"]), NewInteger(0)}, true, false},
		{Sequence{NewBoolean(true)}, true, false},
		{Sequence{NewBoolean(false)}, false, false},
		{Sequence{NewInteger(0)}, false, false},
		{Sequence{NewInteger(-1)}, true, false},
		{Sequence{NewDouble(math.NaN())}, false, false},
		{Sequence{NewString("")}, false, false},
		{Sequence{NewString("x")}, true, false},
		{Sequence{NewInteger(1), NewInteger(2)}, false, true},
	}
	for i, c := range cases {
		got, err := EBV(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("case %d: EBV=%v err=%v, want %v err=%v", i, got, err, c.want, c.err)
		}
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Item
		op   CompOp
		want bool
		err  bool
	}{
		{NewInteger(1), NewInteger(1), OpEq, true, false},
		{NewInteger(1), NewDouble(1.0), OpEq, true, false},
		{NewInteger(1), NewDouble(1.5), OpLt, true, false},
		{NewString("a"), NewString("b"), OpLt, true, false},
		{NewUntyped("a"), NewString("a"), OpEq, true, false},
		{NewBoolean(true), NewBoolean(false), OpGt, true, false},
		{NewDouble(math.NaN()), NewDouble(math.NaN()), OpEq, false, false},
		{NewDouble(math.NaN()), NewDouble(1), OpNe, true, false},
		{NewString("1"), NewInteger(1), OpEq, false, true},
	}
	for i, c := range cases {
		got, err := CompareValues(c.a, c.b, c.op)
		if (err != nil) != c.err || (err == nil && got != c.want) {
			t.Errorf("case %d: got %v err=%v, want %v err=%v", i, got, err, c.want, c.err)
		}
	}
}

func TestGeneralCompare(t *testing.T) {
	// untyped promotes to double against numerics
	ok, err := GeneralCompareItems(NewUntyped("10"), NewInteger(10), OpEq)
	if err != nil || !ok {
		t.Errorf("untyped 10 = 10: %v %v", ok, err)
	}
	ok, err = GeneralCompareItems(NewUntyped("abc"), NewUntyped("abc"), OpEq)
	if err != nil || !ok {
		t.Errorf("untyped abc = abc: %v %v", ok, err)
	}
	if _, err := GeneralCompareItems(NewUntyped("abc"), NewInteger(1), OpEq); err == nil {
		t.Errorf("uncastable untyped vs numeric must raise FORG0001")
	}
	ok, _ = GeneralCompare(Sequence{NewInteger(1), NewInteger(5)}, Sequence{NewInteger(5)}, OpEq)
	if !ok {
		t.Errorf("existential general comparison failed")
	}
	ok, _ = GeneralCompare(nil, Sequence{NewInteger(5)}, OpEq)
	if ok {
		t.Errorf("empty operand must compare false")
	}
}

func TestDistinctValuesAndDeepEqual(t *testing.T) {
	dv := DistinctValues(Sequence{NewInteger(1), NewDouble(1.0), NewString("1"), NewUntyped("1"), NewInteger(2)})
	if len(dv) != 3 { // numeric 1, string "1" (untyped "1" equal to it), 2
		t.Errorf("distinct-values cardinality = %d, want 3 (%v)", len(dv), dv)
	}
	nan := DistinctValues(Sequence{NewDouble(math.NaN()), NewDouble(math.NaN())})
	if len(nan) != 1 {
		t.Errorf("distinct-values must collapse NaNs")
	}
	if !DeepEqual(Sequence{NewDouble(math.NaN())}, Sequence{NewDouble(math.NaN())}) {
		t.Errorf("deep-equal treats NaN = NaN")
	}
	_, refs := buildTestDoc(t)
	if !DeepEqual(Sequence{NewNode(refs["x"])}, Sequence{NewNode(refs["x"])}) {
		t.Errorf("deep-equal on same node")
	}
	if DeepEqual(Sequence{NewNode(refs["x"])}, Sequence{NewNode(refs["z"])}) {
		t.Errorf("x and z are structurally different")
	}
}

func TestFormatParseDouble(t *testing.T) {
	cases := map[float64]string{
		1:    "1",
		-2.5: "-2.5",
		1e20: "1e+20",
	}
	for f, want := range cases {
		if got := FormatDouble(f); got != want {
			t.Errorf("FormatDouble(%v) = %q, want %q", f, got, want)
		}
	}
	if FormatDouble(math.Inf(1)) != "INF" || FormatDouble(math.Inf(-1)) != "-INF" || FormatDouble(math.NaN()) != "NaN" {
		t.Errorf("special double spellings wrong")
	}
	for _, s := range []string{"INF", "-INF", "NaN", "1.5", "-3"} {
		if _, err := ParseDouble(s); err != nil {
			t.Errorf("ParseDouble(%q): %v", s, err)
		}
	}
}

func TestLeafDoc(t *testing.T) {
	a := NewLeafDoc(AttributeNode, "id", "7")
	if a.Kind() != AttributeNode || a.Name() != "id" || a.Value() != "7" {
		t.Errorf("leaf attribute wrong: %v", a)
	}
	if p, ok := a.Parent(); !ok || p.Kind() != DocumentNode {
		t.Errorf("leaf parent must be the fragment document node")
	}
	txt := NewLeafDoc(TextNode, "", "hi")
	if txt.StringValue() != "hi" {
		t.Errorf("leaf text wrong")
	}
}

// randomTree builds a random document with n elements for property tests.
func randomTree(rng *rand.Rand, n int) *Document {
	b := NewBuilder("rand")
	open := 0
	b.StartElement("n0")
	open++
	for i := 1; i < n; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			b.StartElement("n")
			open++
		default:
			if open > 1 {
				b.EndElement()
				open--
			} else {
				b.Text("t")
			}
		}
	}
	for ; open > 0; open-- {
		b.EndElement()
	}
	return b.Done()
}

// TestQuickDDOIdempotent: ddo(ddo(s)) = ddo(s), and ddo output is sorted
// and duplicate-free.
func TestQuickDDOIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, picks []uint8) bool {
		doc := randomTree(rand.New(rand.NewSource(seed)), 20)
		var seq Sequence
		for _, p := range picks {
			seq = append(seq, NewNode(NodeRef{doc, int32(int(p) % doc.Len())}))
		}
		d1, err := DDO(seq)
		if err != nil {
			return false
		}
		d2, err := DDO(d1)
		if err != nil || len(d1) != len(d2) {
			return false
		}
		for i := 1; i < len(d1); i++ {
			if !d1[i-1].Node().Before(d1[i].Node()) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSetOpsAlgebra: over random node sets, union/except/intersect
// satisfy the usual identities: (A∪B)\B ⊆ A, A∩B ⊆ A, A∪B ⊇ A,
// |A∪B| + |A∩B| = |A| + |B| (on ddo'd inputs).
func TestQuickSetOpsAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	doc := randomTree(rand.New(rand.NewSource(7)), 30)
	pick := func(sel []uint8) Sequence {
		var s Sequence
		for _, p := range sel {
			s = append(s, NewNode(NodeRef{doc, int32(int(p) % doc.Len())}))
		}
		d, _ := DDO(s)
		return d
	}
	f := func(aSel, bSel []uint8) bool {
		a, b := pick(aSel), pick(bSel)
		u, err := Union(a, b)
		if err != nil {
			return false
		}
		i, err := Intersect(a, b)
		if err != nil {
			return false
		}
		if len(u)+len(i) != len(a)+len(b) {
			return false
		}
		diff, err := Except(u, b)
		if err != nil {
			return false
		}
		// (A∪B)\B ⊆ A
		inA := map[NodeRef]bool{}
		for _, it := range a {
			inA[it.Node()] = true
		}
		for _, it := range diff {
			if !inA[it.Node()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}

	// intersect over raw operands — unsorted, duplicate-ridden, of
	// unequal lengths — in both argument orders, against a map oracle: the
	// distinct nodes in both, in document order.
	raw := func(sel []uint8) Sequence {
		var s Sequence
		for _, p := range sel {
			s = append(s, NewNode(NodeRef{doc, int32(int(p) % doc.Len())}))
		}
		return s
	}
	g := func(aSel, bSel []uint8, extra uint8) bool {
		a := raw(aSel)
		b := raw(append(bSel, aSel[:min(len(aSel), int(extra)%4)]...))
		inB := map[NodeRef]bool{}
		for _, it := range b {
			inB[it.Node()] = true
		}
		seen := map[NodeRef]bool{}
		var want []NodeRef
		for _, it := range a {
			if n := it.Node(); inB[n] && !seen[n] {
				seen[n] = true
				want = append(want, n)
			}
		}
		SortNodes(want)
		for _, args := range [][2]Sequence{{a, b}, {b, a}} {
			got, err := Intersect(args[0], args[1])
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range got {
				if !got[i].Node().Same(want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}

	// A non-node operand is XPTY0004, and the error names a's first
	// non-node item before b's, whichever operand is longer.
	long := raw([]uint8{1, 2, 3, 4, 5, 6, 7, 8})
	short := raw([]uint8{2})
	withItem := func(s Sequence, it Item) Sequence { return append(slices.Clone(s), it) }
	for _, c := range []struct {
		name string
		a, b Sequence
		want string
	}{
		{"a only, a longer", withItem(long, NewInteger(1)), short, "xs:integer"},
		{"a only, b longer", withItem(short, NewInteger(1)), long, "xs:integer"},
		{"b only, a longer", long, withItem(short, NewString("x")), "xs:string"},
		{"b only, b longer", short, withItem(long, NewString("x")), "xs:string"},
		{"both, a longer", withItem(long, NewInteger(1)), withItem(short, NewString("x")), "xs:integer"},
		{"both, b longer", withItem(short, NewInteger(1)), withItem(long, NewString("x")), "xs:integer"},
	} {
		_, err := Intersect(c.a, c.b)
		if CodeOf(err) != ErrType || !strings.HasSuffix(err.Error(), "expected node()*, found "+c.want) {
			t.Errorf("intersect, non-node in %s: %v, want XPTY0004 naming %s", c.name, err, c.want)
		}
	}
}

// TestQuickGeneralCompareSymmetry: a = b ⇔ b = a and a != b is the
// negation on singleton comparable operands.
func TestQuickGeneralCompareSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(x, y int32) bool {
		a, b := NewInteger(int64(x)), NewInteger(int64(y))
		eq1, _ := GeneralCompareItems(a, b, OpEq)
		eq2, _ := GeneralCompareItems(b, a, OpEq)
		ne, _ := GeneralCompareItems(a, b, OpNe)
		return eq1 == eq2 && ne == !eq1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestArenaRoundTrip: a document exported through Columns/VisitIDs and
// rebuilt by NewDocument has the same arena and stats under a fresh
// stamp, and NewDocument refuses a table whose parent links are corrupt.
func TestArenaRoundTrip(t *testing.T) {
	d, _ := buildTestDoc(t)
	load := func(corrupt bool) (*Document, error) {
		c := d.Columns()
		if corrupt {
			c.Parents = append([]int32(nil), c.Parents...)
			c.Parents[2] = 5
		}
		ids := map[string]int32{}
		d.VisitIDs(func(id string, pre int32) { ids[id] = pre })
		return NewDocument(d.URI, c, ids, nil)
	}
	got, err := load(false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != d.Stats() || got.Stamp() == d.Stamp() || got.Root().StringValue() != d.Root().StringValue() {
		t.Errorf("reloaded %+v (stamp %d), want %+v under a fresh stamp", got.Stats(), got.Stamp(), d.Stats())
	}
	if _, err := load(true); err == nil {
		t.Error("loader accepted a node whose parent follows it")
	}
}

// TestNewDocumentRejects: every structural check NewDocument makes
// refuses a table that breaks it. Accessors index the columns unchecked,
// so these checks are what keeps a corrupt snapshot from panicking them.
func TestNewDocumentRejects(t *testing.T) {
	d, _ := buildTestDoc(t)
	// Preorder: 0 doc, 1 r, 2 @a, 3 x, 4 "t1", 5 y, 6 @b, 7 "mid", 8 z, 9 "t2".
	cases := map[string]struct {
		mutate func(c *Columns)
		ids    map[string]int32
	}{
		"empty":                {mutate: func(c *Columns) { *c = Columns{} }},
		"short column":         {mutate: func(c *Columns) { c.Parents = c.Parents[:len(c.Parents)-1] }},
		"first name not empty": {mutate: func(c *Columns) { c.Names[0] = "r" }},
		"unknown kind":         {mutate: func(c *Columns) { c.Kinds[4] = PINode + 1 }},
		"unknown name id":      {mutate: func(c *Columns) { c.NameIDs[3] = uint32(len(c.Names)) }},
		"value ends decrease":  {mutate: func(c *Columns) { c.ValueEnds[5] = c.ValueEnds[4] - 1 }},
		"value end past blob":  {mutate: func(c *Columns) { c.ValueEnds[9] = uint64(len(c.Values)) + 1 }},
		"root not document":    {mutate: func(c *Columns) { c.Kinds[0] = ElementNode }},
		"root short":           {mutate: func(c *Columns) { c.Sizes[0]-- }},
		"root level":           {mutate: func(c *Columns) { c.Levels[0] = 1 }},
		"parent follows":       {mutate: func(c *Columns) { c.Parents[2] = 5 }},
		"parent negative":      {mutate: func(c *Columns) { c.Parents[4] = -1 }},
		"size negative":        {mutate: func(c *Columns) { c.Sizes[9] = -1 }},
		"size past arena":      {mutate: func(c *Columns) { c.Sizes[8] = 2 }},
		"size wraps int32":     {mutate: func(c *Columns) { c.Sizes[8] = math.MaxInt32 }},
		"escapes parent":       {mutate: func(c *Columns) { c.Sizes[5] = 2 }},
		"level":                {mutate: func(c *Columns) { c.Levels[4] = 5 }},
		"ID on text":           {ids: map[string]int32{"k": 4}},
		"ID past arena":        {ids: map[string]int32{"k": 10}},
	}
	for name, tc := range cases {
		src := d.Columns()
		c := Columns{
			Kinds:     append([]NodeKind(nil), src.Kinds...),
			Parents:   append([]int32(nil), src.Parents...),
			Sizes:     append([]int32(nil), src.Sizes...),
			Levels:    append([]int32(nil), src.Levels...),
			NameIDs:   append([]uint32(nil), src.NameIDs...),
			Names:     append([]string(nil), src.Names...),
			ValueEnds: append([]uint64(nil), src.ValueEnds...),
			Values:    src.Values,
		}
		if _, err := NewDocument("t.xml", c, nil, nil); err != nil {
			t.Fatalf("%s: pristine copy rejected: %v", name, err)
		}
		if tc.mutate != nil {
			tc.mutate(&c)
		}
		if _, err := NewDocument("t.xml", c, tc.ids, nil); err == nil {
			t.Errorf("%s: NewDocument accepted the corrupt table", name)
		}
	}
}

// TestSmallBuildAllocations: a constructed fragment like the bidder
// query's `<person id="…">n</person>` costs three allocations — the
// builder, the document and one column block — and no name map.
func TestSmallBuildAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		b := NewBuilder("")
		b.StartElement("person")
		b.Attribute("id", "person12")
		b.Text("3")
		b.EndElement()
		b.Done()
	})
	if allocs > 3 {
		t.Errorf("building a 4-node fragment: %.0f allocations, want ≤ 3", allocs)
	}
}
