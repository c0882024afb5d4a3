package parser

import (
	"fmt"
	"strings"

	"repro/internal/xq/ast"
)

// Parse parses a complete query (prolog plus body expression).
func Parse(src string) (m *ast.Module, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*ParseError); ok {
				err = pe
				return
			}
			panic(r)
		}
	}()
	p := &parser{l: newLexer(src)}
	p.advance()
	m = p.parseModule()
	if p.tok.kind != tEOF {
		p.errf("unexpected %s after query body", p.tok.describe())
	}
	return m, nil
}

// ParseExpr parses a single expression (no prolog).
func ParseExpr(src string) (ast.Expr, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return m.Body, nil
}

type parser struct {
	l   *lexer
	tok token
}

func (p *parser) advance() { p.tok = p.l.next() }

func (p *parser) errf(format string, args ...any) {
	panic(&ParseError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)})
}

// peek returns the token after the current one without consuming input.
func (p *parser) peek() token {
	savePos, saveLine := p.l.pos, p.l.line
	t := p.l.next()
	p.l.pos, p.l.line = savePos, saveLine
	return t
}

func (p *parser) expectSym(s string) {
	if !p.tok.isSym(s) {
		p.errf("expected %q, found %s", s, p.tok.describe())
	}
	p.advance()
}

func (p *parser) expectName(s string) {
	if !p.tok.isName(s) {
		p.errf("expected %q, found %s", s, p.tok.describe())
	}
	p.advance()
}

func (p *parser) expectVar() string {
	if p.tok.kind != tVar {
		p.errf("expected variable, found %s", p.tok.describe())
	}
	name := p.tok.text
	p.advance()
	return name
}

func (p *parser) parseModule() *ast.Module {
	m := &ast.Module{}
	for p.tok.isName("declare") {
		next := p.peek()
		switch {
		case next.isName("function"):
			p.advance()
			p.advance()
			m.Funcs = append(m.Funcs, p.parseFuncDecl())
		case next.isName("variable"):
			p.advance()
			p.advance()
			name := p.expectVar()
			p.expectSym(":=")
			val := p.parseExprSingle()
			p.expectSym(";")
			m.Vars = append(m.Vars, &ast.VarDecl{Name: name, Value: val})
		default:
			p.errf("unsupported declaration %q", next.text)
		}
	}
	m.Body = p.parseExpr()
	return m
}

func (p *parser) parseFuncDecl() *ast.FuncDecl {
	if p.tok.kind != tName {
		p.errf("expected function name, found %s", p.tok.describe())
	}
	f := &ast.FuncDecl{Name: p.tok.text}
	p.advance()
	p.expectSym("(")
	for !p.tok.isSym(")") {
		if len(f.Params) > 0 {
			p.expectSym(",")
		}
		prm := ast.Param{Name: p.expectVar()}
		if p.tok.isName("as") {
			p.advance()
			t := p.parseSeqType()
			prm.Type = &t
		}
		f.Params = append(f.Params, prm)
	}
	p.advance() // )
	if p.tok.isName("as") {
		p.advance()
		t := p.parseSeqType()
		f.Return = &t
	}
	p.expectSym("{")
	f.Body = p.parseExpr()
	p.expectSym("}")
	p.expectSym(";")
	return f
}

// parseExpr parses a comma sequence.
func (p *parser) parseExpr() ast.Expr {
	first := p.parseExprSingle()
	if !p.tok.isSym(",") {
		return first
	}
	items := []ast.Expr{first}
	for p.tok.isSym(",") {
		p.advance()
		items = append(items, p.parseExprSingle())
	}
	return &ast.Seq{Items: items}
}

func (p *parser) parseExprSingle() ast.Expr {
	if p.tok.kind == tName {
		switch p.tok.text {
		case "for", "let":
			if p.peek().kind == tVar {
				return p.parseFLWOR()
			}
		case "some", "every":
			if p.peek().kind == tVar {
				return p.parseQuantified()
			}
		case "if":
			if p.peek().isSym("(") {
				return p.parseIf()
			}
		case "typeswitch":
			if p.peek().isSym("(") {
				return p.parseTypeswitch()
			}
		case "with":
			if p.peek().kind == tVar {
				return p.parseFixpoint()
			}
		}
	}
	return p.parseOr()
}

// parseFixpoint parses the paper's IFP form:
// with $x seeded by ExprSingle recurse ExprSingle.
func (p *parser) parseFixpoint() ast.Expr {
	p.advance() // with
	v := p.expectVar()
	p.expectName("seeded")
	p.expectName("by")
	seed := p.parseExprSingle()
	p.expectName("recurse")
	body := p.parseExprSingle()
	return &ast.Fixpoint{Var: v, Seed: seed, Body: body}
}

type flworClause struct {
	isLet bool
	v     string
	pos   string
	e     ast.Expr
}

func (p *parser) parseFLWOR() ast.Expr {
	var clauses []flworClause
	for p.tok.isName("for") || p.tok.isName("let") {
		if !(p.peek().kind == tVar) {
			break
		}
		isLet := p.tok.isName("let")
		p.advance()
		for {
			c := flworClause{isLet: isLet, v: p.expectVar()}
			if isLet {
				p.expectSym(":=")
				c.e = p.parseExprSingle()
			} else {
				if p.tok.isName("at") {
					p.advance()
					c.pos = p.expectVar()
				}
				p.expectName("in")
				c.e = p.parseExprSingle()
			}
			clauses = append(clauses, c)
			if !p.tok.isSym(",") {
				break
			}
			p.advance()
		}
	}
	var where ast.Expr
	if p.tok.isName("where") {
		p.advance()
		where = p.parseExprSingle()
	}
	var order *ast.OrderSpec
	if p.tok.isName("order") {
		p.advance()
		p.expectName("by")
		order = &ast.OrderSpec{Key: p.parseExprSingle()}
		if p.tok.isName("descending") {
			order.Descending = true
			p.advance()
		} else if p.tok.isName("ascending") {
			p.advance()
		}
		nFor := 0
		for _, c := range clauses {
			if !c.isLet {
				nFor++
			}
		}
		if nFor != 1 {
			p.errf("order by requires exactly one for clause in this subset (found %d)", nFor)
		}
	}
	p.expectName("return")
	body := p.parseExprSingle()
	if where != nil {
		body = &ast.If{Cond: where, Then: body, Else: &ast.Seq{}}
	}
	// Build nested For/Let inside-out.
	for i := len(clauses) - 1; i >= 0; i-- {
		c := clauses[i]
		if c.isLet {
			body = &ast.Let{Var: c.v, Value: c.e, Body: body}
		} else {
			f := &ast.For{Var: c.v, Pos: c.pos, In: c.e, Body: body}
			if order != nil {
				f.OrderBy = order
				order = nil
			}
			body = f
		}
	}
	return body
}

func (p *parser) parseQuantified() ast.Expr {
	every := p.tok.isName("every")
	p.advance()
	type qc struct {
		v string
		e ast.Expr
	}
	var clauses []qc
	for {
		v := p.expectVar()
		p.expectName("in")
		e := p.parseExprSingle()
		clauses = append(clauses, qc{v, e})
		if !p.tok.isSym(",") {
			break
		}
		p.advance()
	}
	p.expectName("satisfies")
	cond := p.parseExprSingle()
	out := cond
	for i := len(clauses) - 1; i >= 0; i-- {
		out = &ast.Quantified{Every: every, Var: clauses[i].v, In: clauses[i].e, Cond: out}
	}
	return out
}

func (p *parser) parseIf() ast.Expr {
	p.advance() // if
	p.expectSym("(")
	cond := p.parseExpr()
	p.expectSym(")")
	p.expectName("then")
	then := p.parseExprSingle()
	p.expectName("else")
	els := p.parseExprSingle()
	return &ast.If{Cond: cond, Then: then, Else: els}
}

func (p *parser) parseTypeswitch() ast.Expr {
	p.advance() // typeswitch
	p.expectSym("(")
	op := p.parseExpr()
	p.expectSym(")")
	ts := &ast.TypeSwitch{Operand: op}
	for p.tok.isName("case") {
		p.advance()
		c := &ast.TSCase{}
		if p.tok.kind == tVar {
			c.Var = p.tok.text
			p.advance()
			p.expectName("as")
		}
		c.Type = p.parseSeqType()
		p.expectName("return")
		c.Body = p.parseExprSingle()
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		p.errf("typeswitch requires at least one case")
	}
	p.expectName("default")
	if p.tok.kind == tVar {
		ts.DefaultVar = p.tok.text
		p.advance()
	}
	p.expectName("return")
	ts.Default = p.parseExprSingle()
	return ts
}

func (p *parser) parseSeqType() ast.SeqType {
	if p.tok.kind != tName {
		p.errf("expected sequence type, found %s", p.tok.describe())
	}
	name := p.tok.text
	if name == "empty-sequence" {
		p.advance()
		p.expectSym("(")
		p.expectSym(")")
		return ast.SeqType{Occ: ast.OccEmpty}
	}
	t := ast.SeqType{}
	switch name {
	case "item":
		t.Item = ast.ITItem
		p.advance()
		p.expectSym("(")
		p.expectSym(")")
	case "node":
		t.Item = ast.ITNode
		p.advance()
		p.expectSym("(")
		p.expectSym(")")
	case "text":
		t.Item = ast.ITText
		p.advance()
		p.expectSym("(")
		p.expectSym(")")
	case "comment":
		t.Item = ast.ITComment
		p.advance()
		p.expectSym("(")
		p.expectSym(")")
	case "processing-instruction":
		t.Item = ast.ITPI
		p.advance()
		p.expectSym("(")
		if p.tok.kind == tName || p.tok.kind == tString {
			p.advance()
		}
		p.expectSym(")")
	case "document-node":
		t.Item = ast.ITDocument
		p.advance()
		p.expectSym("(")
		p.expectSym(")")
	case "element", "attribute":
		if name == "element" {
			t.Item = ast.ITElement
		} else {
			t.Item = ast.ITAttribute
		}
		p.advance()
		p.expectSym("(")
		if p.tok.kind == tName {
			t.Name = p.tok.text
			p.advance()
		} else if p.tok.isSym("*") {
			t.Name = "*"
			p.advance()
		}
		p.expectSym(")")
	case "xs:string":
		t.Item = ast.ITString
		p.advance()
	case "xs:integer", "xs:int", "xs:long":
		t.Item = ast.ITInteger
		p.advance()
	case "xs:double", "xs:decimal", "xs:float":
		t.Item = ast.ITDouble
		p.advance()
	case "xs:boolean":
		t.Item = ast.ITBoolean
		p.advance()
	case "xs:untypedAtomic":
		t.Item = ast.ITUntyped
		p.advance()
	case "xs:anyAtomicType":
		t.Item = ast.ITAnyAtomic
		p.advance()
	default:
		p.errf("unsupported sequence type %q", name)
	}
	if p.tok.isSym("?") {
		t.Occ = ast.OccOptional
		p.advance()
	} else if p.tok.isSym("*") {
		t.Occ = ast.OccStar
		p.advance()
	} else if p.tok.isSym("+") {
		t.Occ = ast.OccPlus
		p.advance()
	}
	return t
}

func (p *parser) parseOr() ast.Expr {
	e := p.parseAnd()
	for p.tok.isName("or") {
		p.advance()
		e = &ast.Binary{Op: ast.OpOr, L: e, R: p.parseAnd()}
	}
	return e
}

func (p *parser) parseAnd() ast.Expr {
	e := p.parseComparison()
	for p.tok.isName("and") {
		p.advance()
		e = &ast.Binary{Op: ast.OpAnd, L: e, R: p.parseComparison()}
	}
	return e
}

var valueComps = map[string]ast.BinOp{
	"eq": ast.OpValEq, "ne": ast.OpValNe, "lt": ast.OpValLt,
	"le": ast.OpValLe, "gt": ast.OpValGt, "ge": ast.OpValGe,
}

var generalComps = map[string]ast.BinOp{
	"=": ast.OpGenEq, "!=": ast.OpGenNe, "<": ast.OpGenLt,
	"<=": ast.OpGenLe, ">": ast.OpGenGt, ">=": ast.OpGenGe,
}

func (p *parser) parseComparison() ast.Expr {
	e := p.parseRange()
	if p.tok.kind == tName {
		if op, ok := valueComps[p.tok.text]; ok {
			p.advance()
			return &ast.Binary{Op: op, L: e, R: p.parseRange()}
		}
		if p.tok.isName("is") {
			p.advance()
			return &ast.Binary{Op: ast.OpIs, L: e, R: p.parseRange()}
		}
	}
	if p.tok.kind == tSym {
		if op, ok := generalComps[p.tok.text]; ok {
			p.advance()
			return &ast.Binary{Op: op, L: e, R: p.parseRange()}
		}
		if p.tok.isSym("<<") {
			p.advance()
			return &ast.Binary{Op: ast.OpPrecedes, L: e, R: p.parseRange()}
		}
		if p.tok.isSym(">>") {
			p.advance()
			return &ast.Binary{Op: ast.OpFollows, L: e, R: p.parseRange()}
		}
	}
	return e
}

func (p *parser) parseRange() ast.Expr {
	e := p.parseAdditive()
	if p.tok.isName("to") {
		p.advance()
		return &ast.Binary{Op: ast.OpTo, L: e, R: p.parseAdditive()}
	}
	return e
}

func (p *parser) parseAdditive() ast.Expr {
	e := p.parseMultiplicative()
	for p.tok.isSym("+") || p.tok.isSym("-") {
		op := ast.OpAdd
		if p.tok.isSym("-") {
			op = ast.OpSub
		}
		p.advance()
		e = &ast.Binary{Op: op, L: e, R: p.parseMultiplicative()}
	}
	return e
}

func (p *parser) parseMultiplicative() ast.Expr {
	e := p.parseUnion()
	for {
		var op ast.BinOp
		switch {
		case p.tok.isSym("*"):
			op = ast.OpMul
		case p.tok.isName("div"):
			op = ast.OpDiv
		case p.tok.isName("idiv"):
			op = ast.OpIDiv
		case p.tok.isName("mod"):
			op = ast.OpMod
		default:
			return e
		}
		p.advance()
		e = &ast.Binary{Op: op, L: e, R: p.parseUnion()}
	}
}

func (p *parser) parseUnion() ast.Expr {
	e := p.parseIntersectExcept()
	for p.tok.isName("union") || p.tok.isSym("|") {
		p.advance()
		e = &ast.Binary{Op: ast.OpUnion, L: e, R: p.parseIntersectExcept()}
	}
	return e
}

func (p *parser) parseIntersectExcept() ast.Expr {
	e := p.parseUnary()
	for p.tok.isName("intersect") || p.tok.isName("except") {
		op := ast.OpIntersect
		if p.tok.isName("except") {
			op = ast.OpExcept
		}
		p.advance()
		e = &ast.Binary{Op: op, L: e, R: p.parseUnary()}
	}
	return e
}

func (p *parser) parseUnary() ast.Expr {
	neg := false
	for p.tok.isSym("-") || p.tok.isSym("+") {
		if p.tok.isSym("-") {
			neg = !neg
		}
		p.advance()
	}
	e := p.parsePath()
	if neg {
		return &ast.Unary{E: e}
	}
	return e
}

// parsePath parses PathExpr: rooted or relative step chains.
func (p *parser) parsePath() ast.Expr {
	if p.tok.isSym("/") {
		p.advance()
		if p.startsStep() {
			return p.parseRelativePath(&ast.RootExpr{})
		}
		return &ast.RootExpr{}
	}
	if p.tok.isSym("//") {
		p.advance()
		return p.parseRelativePathFrom(descendantPath(&ast.RootExpr{}, p.parseStepExpr()))
	}
	first := p.parseStepExpr()
	return p.parseRelativePathFrom(first)
}

func (p *parser) parseRelativePath(root ast.Expr) ast.Expr {
	step := p.parseStepExpr()
	return p.parseRelativePathFrom(&ast.Slash{L: root, R: step})
}

func (p *parser) parseRelativePathFrom(e ast.Expr) ast.Expr {
	for {
		if p.tok.isSym("/") {
			p.advance()
			e = &ast.Slash{L: e, R: p.parseStepExpr()}
		} else if p.tok.isSym("//") {
			p.advance()
			e = descendantPath(e, p.parseStepExpr())
		} else {
			return e
		}
	}
}

// descendantPath desugars E//step. A child-axis step whose predicates are
// all provably non-positional fuses to E/descendant::T[preds] —
// child-of-descendant-or-self is exactly descendant, and an EBV-only
// predicate selects the same nodes under either axis numbering — so one
// step over the whole subtree replaces a child step per descendant
// context (also the shape the name-index probe answers from one window).
// Everything else gets the standard E/descendant-or-self::node()/step.
func descendantPath(e ast.Expr, step ast.Expr) ast.Expr {
	if s, ok := step.(*ast.AxisStep); ok && s.Axis == ast.AxisChild && nonPositionalPreds(s.Preds) {
		return &ast.Slash{L: e, R: &ast.AxisStep{Axis: ast.AxisDescendant, Test: s.Test, Preds: s.Preds}}
	}
	dos := &ast.Slash{L: e, R: &ast.AxisStep{Axis: ast.AxisDescendantOrSelf, Test: ast.NodeTest{Kind: ast.TestAnyKind}}}
	return &ast.Slash{L: dos, R: step}
}

// nonPositionalPreds reports whether every predicate is statically
// boolean-valued with no position()/last() reference anywhere inside, so
// each can only ever act as an EBV filter. A numeric predicate value
// selects by context position, and position numbering differs between the
// child and descendant axes — such steps must not move. Conservative:
// anything unrecognized blocks fusion.
func nonPositionalPreds(preds []ast.Expr) bool {
	for _, p := range preds {
		if !booleanValued(p) || mentionsPosition(p) {
			return false
		}
	}
	return true
}

// booleanValued recognizes expressions that always yield a boolean (or
// empty) value, never a number.
func booleanValued(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Binary:
		return e.Op.IsComparison() || e.Op == ast.OpAnd || e.Op == ast.OpOr
	case *ast.Quantified:
		return true
	case *ast.FuncCall:
		switch e.Name {
		case "not", "fn:not", "exists", "fn:exists", "empty", "fn:empty",
			"boolean", "fn:boolean", "contains", "fn:contains",
			"starts-with", "fn:starts-with":
			return true
		}
	}
	return false
}

// mentionsPosition reports whether e syntactically contains a
// position() or last() call.
func mentionsPosition(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if fc, ok := x.(*ast.FuncCall); ok {
			switch fc.Name {
			case "position", "fn:position", "last", "fn:last":
				found = true
			}
		}
		return !found
	})
	return found
}

// startsStep reports whether the current token can begin a path step.
func (p *parser) startsStep() bool {
	switch p.tok.kind {
	case tName:
		return true
	case tSym:
		switch p.tok.text {
		case "@", "*", "..", ".", "(", "$":
			return true
		}
	case tVar:
		return true
	}
	return false
}

var axisByName = map[string]ast.Axis{
	"child": ast.AxisChild, "descendant": ast.AxisDescendant, "attribute": ast.AxisAttribute,
	"self": ast.AxisSelf, "descendant-or-self": ast.AxisDescendantOrSelf,
	"following-sibling": ast.AxisFollowingSibling, "following": ast.AxisFollowing,
	"parent": ast.AxisParent, "ancestor": ast.AxisAncestor,
	"preceding-sibling": ast.AxisPrecedingSibling, "preceding": ast.AxisPreceding,
	"ancestor-or-self": ast.AxisAncestorOrSelf,
}

var kindTestNames = map[string]bool{
	"node": true, "text": true, "comment": true,
	"processing-instruction": true, "element": true, "attribute": true,
	"document-node": true,
}

func (p *parser) parseStepExpr() ast.Expr {
	// Reverse/forward abbreviated steps.
	if p.tok.isSym("..") {
		p.advance()
		return p.withPreds(&ast.AxisStep{Axis: ast.AxisParent, Test: ast.NodeTest{Kind: ast.TestAnyKind}})
	}
	if p.tok.isSym("@") {
		p.advance()
		test := p.parseNameOrKindTest(ast.AxisAttribute)
		return p.withPreds(&ast.AxisStep{Axis: ast.AxisAttribute, Test: test})
	}
	if p.tok.isSym("*") {
		p.advance()
		return p.withPreds(&ast.AxisStep{Axis: ast.AxisChild, Test: ast.NodeTest{Kind: ast.TestName, Name: "*"}})
	}
	if p.tok.kind == tName {
		next := p.peek()
		if ax, ok := axisByName[p.tok.text]; ok && next.isSym("::") {
			p.advance()
			p.advance()
			test := p.parseNameOrKindTest(ax)
			return p.withPreds(&ast.AxisStep{Axis: ax, Test: test})
		}
		if kindTestNames[p.tok.text] && next.isSym("(") {
			// Kind test on the default (child) axis; element/attribute
			// kind tests are only steps here, computed constructors are
			// recognized below by '{' or a following name.
			test := p.parseKindTest()
			ax := ast.AxisChild
			if test.Kind == ast.TestAttr {
				ax = ast.AxisAttribute
			}
			return p.withPreds(&ast.AxisStep{Axis: ax, Test: test})
		}
		isCtor := (p.tok.text == "element" || p.tok.text == "attribute") &&
			(next.kind == tName || next.isSym("{"))
		isTextCtor := p.tok.text == "text" && next.isSym("{")
		if !isCtor && !isTextCtor && !next.isSym("(") {
			// Plain name test on the child axis.
			name := p.tok.text
			p.advance()
			if p.tok.isSym(":") && p.peek().isSym("*") {
				p.advance()
				p.advance()
				name = "*"
			}
			return p.withPreds(&ast.AxisStep{Axis: ast.AxisChild, Test: ast.NodeTest{Kind: ast.TestName, Name: name}})
		}
	}
	// FilterExpr: primary with predicates.
	prim := p.parsePrimary()
	preds := p.parsePreds()
	if len(preds) == 0 {
		return prim
	}
	return &ast.Filter{E: prim, Preds: preds}
}

func (p *parser) withPreds(step *ast.AxisStep) ast.Expr {
	step.Preds = p.parsePreds()
	return step
}

func (p *parser) parsePreds() []ast.Expr {
	var preds []ast.Expr
	for p.tok.isSym("[") {
		p.advance()
		preds = append(preds, p.parseExpr())
		p.expectSym("]")
	}
	return preds
}

// parseNameOrKindTest parses the node test after an axis.
func (p *parser) parseNameOrKindTest(ax ast.Axis) ast.NodeTest {
	if p.tok.isSym("*") {
		p.advance()
		return ast.NodeTest{Kind: ast.TestName, Name: "*"}
	}
	if p.tok.kind == tName {
		if kindTestNames[p.tok.text] && p.peek().isSym("(") {
			return p.parseKindTest()
		}
		name := p.tok.text
		p.advance()
		return ast.NodeTest{Kind: ast.TestName, Name: name}
	}
	p.errf("expected node test after %s::, found %s", ax, p.tok.describe())
	return ast.NodeTest{}
}

func (p *parser) parseKindTest() ast.NodeTest {
	name := p.tok.text
	p.advance()
	p.expectSym("(")
	t := ast.NodeTest{}
	switch name {
	case "node":
		t.Kind = ast.TestAnyKind
	case "text":
		t.Kind = ast.TestText
	case "comment":
		t.Kind = ast.TestComment
	case "processing-instruction":
		t.Kind = ast.TestPI
		if p.tok.kind == tName {
			t.Name = p.tok.text
			p.advance()
		} else if p.tok.kind == tString {
			t.Name = p.tok.text
			p.advance()
		}
	case "element":
		t.Kind = ast.TestElement
		if p.tok.kind == tName {
			t.Name = p.tok.text
			p.advance()
		} else if p.tok.isSym("*") {
			t.Name = "*"
			p.advance()
		}
	case "attribute":
		t.Kind = ast.TestAttr
		if p.tok.kind == tName {
			t.Name = p.tok.text
			p.advance()
		} else if p.tok.isSym("*") {
			t.Name = "*"
			p.advance()
		}
	case "document-node":
		t.Kind = ast.TestDocument
	}
	p.expectSym(")")
	return t
}

// normalizeFuncName strips the fn: prefix; xs: constructor names are kept.
func normalizeFuncName(name string) string {
	return strings.TrimPrefix(name, "fn:")
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.tok.kind {
	case tInt:
		e := &ast.Literal{Kind: ast.LitInteger, Int: p.tok.i}
		p.advance()
		return e
	case tDouble:
		e := &ast.Literal{Kind: ast.LitDouble, Float: p.tok.f}
		p.advance()
		return e
	case tString:
		e := &ast.Literal{Kind: ast.LitString, Str: p.tok.text}
		p.advance()
		return e
	case tVar:
		e := &ast.VarRef{Name: p.tok.text}
		p.advance()
		return e
	}
	if p.tok.isSym("(") {
		p.advance()
		if p.tok.isSym(")") {
			p.advance()
			return &ast.Seq{}
		}
		e := p.parseExpr()
		p.expectSym(")")
		return e
	}
	if p.tok.isSym(".") {
		p.advance()
		return &ast.ContextItem{}
	}
	if p.tok.isSym("<") {
		return p.parseDirectConstructor()
	}
	if p.tok.kind == tName {
		next := p.peek()
		switch {
		case p.tok.text == "element" && (next.kind == tName || next.isSym("{")):
			return p.parseComputedElem()
		case p.tok.text == "attribute" && (next.kind == tName || next.isSym("{")):
			return p.parseComputedAttr()
		case p.tok.text == "text" && next.isSym("{"):
			p.advance()
			p.advance()
			content := p.parseExpr()
			p.expectSym("}")
			return &ast.TextCtor{Content: content}
		case next.isSym("("):
			name := normalizeFuncName(p.tok.text)
			p.advance()
			p.advance() // (
			var args []ast.Expr
			for !p.tok.isSym(")") {
				if len(args) > 0 {
					p.expectSym(",")
				}
				args = append(args, p.parseExprSingle())
			}
			p.advance() // )
			return &ast.FuncCall{Name: name, Args: args}
		}
	}
	p.errf("unexpected %s", p.tok.describe())
	return nil
}

func (p *parser) parseComputedElem() ast.Expr {
	p.advance() // element
	e := &ast.ElemCtor{}
	if p.tok.kind == tName {
		e.Name = p.tok.text
		p.advance()
	} else {
		p.expectSym("{")
		e.NameExpr = p.parseExpr()
		p.expectSym("}")
	}
	p.expectSym("{")
	if !p.tok.isSym("}") {
		e.Content = []ast.Expr{p.parseExpr()}
	}
	p.expectSym("}")
	return e
}

func (p *parser) parseComputedAttr() ast.Expr {
	p.advance() // attribute
	a := &ast.AttrCtor{}
	if p.tok.kind == tName {
		a.Name = p.tok.text
		p.advance()
	} else {
		p.expectSym("{")
		a.NameExpr = p.parseExpr()
		p.expectSym("}")
	}
	p.expectSym("{")
	if !p.tok.isSym("}") {
		a.Content = []ast.Expr{p.parseExpr()}
	}
	p.expectSym("}")
	return a
}
