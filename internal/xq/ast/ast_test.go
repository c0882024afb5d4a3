package ast

import "testing"

func TestCopyIsDeep(t *testing.T) {
	orig := &For{Var: "v", In: &VarRef{Name: "s"},
		Body: &Binary{Op: OpAdd, L: &VarRef{Name: "v"}, R: &Literal{Kind: LitInteger, Int: 1}}}
	cp := Copy(orig).(*For)
	if cp == orig || cp.Body == orig.Body {
		t.Fatal("Copy shares composite nodes")
	}
	cp.Var = "w"
	if orig.Var != "v" {
		t.Fatal("Copy aliases the original")
	}
	if Format(orig) != "for $v in $s return $v + 1" {
		t.Fatalf("original mutated: %s", Format(orig))
	}
}

func TestWalkOrderAndPruning(t *testing.T) {
	e := &Slash{L: &VarRef{Name: "a"}, R: &AxisStep{Axis: AxisChild,
		Test: NodeTest{Kind: TestName, Name: "b"}, Preds: []Expr{&Literal{Kind: LitInteger, Int: 1}}}}
	var kinds []string
	Walk(e, func(x Expr) bool {
		switch x.(type) {
		case *Slash:
			kinds = append(kinds, "slash")
		case *VarRef:
			kinds = append(kinds, "var")
		case *AxisStep:
			kinds = append(kinds, "step")
			return false // prune: predicate literal not visited
		case *Literal:
			kinds = append(kinds, "lit")
		}
		return true
	})
	if len(kinds) != 3 || kinds[0] != "slash" || kinds[2] != "step" {
		t.Errorf("walk order/pruning wrong: %v", kinds)
	}
}

func TestContainsConstructor(t *testing.T) {
	with := &Fixpoint{Var: "x", Seed: &VarRef{Name: "s"},
		Body: &ElemCtor{Name: "a"}}
	if !ContainsConstructor(with) {
		t.Error("constructor in fixpoint body not found")
	}
	if ContainsConstructor(&VarRef{Name: "x"}) {
		t.Error("false positive")
	}
}

func TestAxisAndTestStrings(t *testing.T) {
	if AxisDescendantOrSelf.String() != "descendant-or-self" {
		t.Errorf("axis name wrong")
	}
	if !AxisAncestor.Reverse() || AxisChild.Reverse() {
		t.Errorf("reverse axis classification wrong")
	}
	tests := map[string]NodeTest{
		"node()":     {Kind: TestAnyKind},
		"text()":     {Kind: TestText},
		"element(a)": {Kind: TestElement, Name: "a"},
		"*":          {Kind: TestName, Name: "*"},
	}
	for want, nt := range tests {
		if nt.String() != want {
			t.Errorf("test string %q != %q", nt.String(), want)
		}
	}
}

func TestSeqTypeString(t *testing.T) {
	cases := map[string]SeqType{
		"node()*":          {Occ: OccStar, Item: ITNode},
		"xs:integer":       {Item: ITInteger},
		"element(x)+":      {Occ: OccPlus, Item: ITElement, Name: "x"},
		"empty-sequence()": {Occ: OccEmpty},
		"item()?":          {Occ: OccOptional, Item: ITItem},
	}
	for want, st := range cases {
		if st.String() != want {
			t.Errorf("SeqType = %q, want %q", st.String(), want)
		}
	}
}

// TestRewriteReachesWhatWalkReaches: rebuild and Children list the same
// sub-expressions for every node kind, so a rewrite misses nothing a walk
// sees, and a copy formats as its original.
func TestRewriteReachesWhatWalkReaches(t *testing.T) {
	lit := func(i int64) Expr { return &Literal{Kind: LitInteger, Int: i} }
	e := &Seq{Items: []Expr{
		&For{Var: "v", Pos: "p", In: &VarRef{Name: "s"}, OrderBy: &OrderSpec{Key: &ContextItem{}}, Body: &RootExpr{}},
		&Let{Var: "l", Value: lit(1), Body: &Quantified{Var: "q", In: lit(2),
			Cond: &If{Cond: lit(3), Then: &Unary{E: lit(4)}, Else: &Binary{Op: OpAdd, L: lit(5), R: lit(6)}}}},
		&Slash{L: &Filter{E: lit(7), Preds: []Expr{lit(8)}},
			R: &AxisStep{Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: "b"}, Preds: []Expr{lit(9)}}},
		&FuncCall{Name: "f", Args: []Expr{lit(10)}},
		&ElemCtor{Name: "e", Attrs: []*AttrCtor{{Name: "a", Content: []Expr{lit(11)}}},
			Content: []Expr{&TextCtor{Content: lit(12)}}},
		&TypeSwitch{Operand: lit(13), Cases: []*TSCase{{Var: "c", Type: SeqType{Item: ITNode}, Body: lit(14)}},
			DefaultVar: "d", Default: lit(15)},
		&Fixpoint{Var: "x", Seed: lit(16), Body: &VarRef{Name: "x"}},
	}}
	walked, rewritten := 0, 0
	Walk(e, func(Expr) bool { walked++; return true })
	cp := Rewrite(e, func(x Expr) Expr { rewritten++; return x })
	if walked != rewritten {
		t.Errorf("walk visits %d nodes, rewrite %d", walked, rewritten)
	}
	if Format(cp) != Format(e) {
		t.Errorf("copy formats as %s, original as %s", Format(cp), Format(e))
	}
}

func TestContextFree(t *testing.T) {
	step := func(name string) *AxisStep {
		return &AxisStep{Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: name}}
	}
	one := &Literal{Kind: LitInteger, Int: 1}
	for _, c := range []struct {
		e    Expr
		want bool
	}{
		{one, true},
		{&VarRef{Name: "v"}, true},
		{&Slash{L: &VarRef{Name: "b"}, R: step("a")}, true},
		{&Filter{E: &VarRef{Name: "s"}, Preds: []Expr{&FuncCall{Name: "position"}}}, true},
		{&Seq{Items: []Expr{one, &VarRef{Name: "v"}}}, true},
		{&ContextItem{}, false},
		{step("a"), false},
		{&Slash{L: step("a"), R: step("b")}, false},
		{&Seq{Items: []Expr{one, step("a")}}, false},
		{&FuncCall{Name: "string", Args: []Expr{&VarRef{Name: "v"}}}, false}, // unrecognized: conservative
	} {
		if got := ContextFree(c.e); got != c.want {
			t.Errorf("ContextFree(%s) = %v, want %v", Format(c.e), got, c.want)
		}
	}
}
