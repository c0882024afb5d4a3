package interp

import (
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// Hoisted comparison predicates. A general-comparison predicate like
// `[@id = $b/@person]` re-evaluates both operands for every candidate
// node, but an operand rooted at a variable or literal cannot observe the
// predicate's context item — its value is the same for every candidate.
// applyPreds evaluates such an operand once per predicate application and
// compares each candidate's dependent side against the hoisted sequence;
// when the comparison is `=` and every hoisted atom is a string or
// untyped value, candidates check a hash set of string values instead of
// scanning the sequence (the general comparison over untyped pairs is
// exactly string equality, so no promotion or cast can fire). Candidates
// whose own atoms are not string-valued fall back to the pairwise
// comparison, preserving cast errors and numeric promotion.

// cmpPred is one hoistable predicate: `dep <op> free` (or flipped),
// where free ignores the context item.
type cmpPred struct {
	dep       ast.Expr
	op        xdm.CompOp
	freeRight bool         // the hoisted operand was the right-hand side
	free      xdm.Sequence // atomized once
	strs      map[string]struct{}
	// steps is dep as a chain of predicate-free child/attribute name
	// steps, when it is one — with strs, the whole candidate check runs
	// as an allocation-free arena walk.
	steps []*ast.AxisStep
}

// hoistCmp recognizes a general-comparison predicate with exactly one
// context-free operand and pre-evaluates that side. It returns nil (no
// error) when the shape does not apply, and skips the work entirely for
// an empty candidate list, where the predicate would never have been
// evaluated at all.
func (ev *evaluator) hoistCmp(p ast.Expr, en *env, nitems int) (*cmpPred, error) {
	if nitems == 0 {
		return nil, nil
	}
	b, ok := p.(*ast.Binary)
	if !ok || b.Op < ast.OpGenEq || b.Op > ast.OpGenGe {
		return nil, nil
	}
	var dep, free ast.Expr
	freeRight := false
	switch {
	case ast.ContextFree(b.R) && !ast.ContextFree(b.L):
		dep, free, freeRight = b.L, b.R, true
	case ast.ContextFree(b.L) && !ast.ContextFree(b.R):
		dep, free = b.R, b.L
	default:
		return nil, nil
	}
	v, err := ev.eval(free, en, dynCtx{})
	if err != nil {
		return nil, err
	}
	hp := &cmpPred{dep: dep, op: genOpOf(b.Op), freeRight: freeRight, free: xdm.Atomize(v)}
	if b.Op == ast.OpGenEq {
		allStr := true
		for _, it := range hp.free {
			if k := it.Kind(); k != xdm.KUntyped && k != xdm.KString {
				allStr = false
				break
			}
		}
		if allStr {
			hp.strs = make(map[string]struct{}, len(hp.free))
			for _, it := range hp.free {
				hp.strs[it.StringValue()] = struct{}{}
			}
			hp.steps, _ = simplePath(dep)
		}
	}
	return hp, nil
}

// evalCmpPred applies one hoisted predicate to one candidate context.
func (ev *evaluator) evalCmpPred(hp *cmpPred, en *env, pctx dynCtx) (bool, error) {
	if hp.steps != nil && pctx.item.IsNode() {
		// Path steps over nodes atomize to untyped strings: the check is
		// exactly "does any path result's string value land in the set",
		// answered by walking the arena with no intermediate sequences.
		// Non-node candidates fall through so the axis-step error
		// surfaces exactly as the unhoisted evaluation would raise it.
		return matchesValueSet(pctx.item.Node(), hp.steps, hp.strs, ev.engine.opts.NoIndex, &ev.index), nil
	}
	v, err := ev.eval(hp.dep, en, pctx)
	if err != nil {
		return false, err
	}
	dep := xdm.Atomize(v)
	if hp.strs != nil {
		allStr := true
		for _, it := range dep {
			if k := it.Kind(); k != xdm.KUntyped && k != xdm.KString {
				allStr = false
				break
			}
		}
		if allStr {
			for _, it := range dep {
				if _, ok := hp.strs[it.StringValue()]; ok {
					return true, nil
				}
			}
			return false, nil
		}
	}
	if hp.freeRight {
		return xdm.GeneralCompare(dep, hp.free, hp.op)
	}
	return xdm.GeneralCompare(hp.free, dep, hp.op)
}

// simplePath recognizes a relative path made solely of predicate-free
// child:: and attribute:: steps — the shapes `@id`, `seller/@person`,
// `bidder/personref` take after parsing.
func simplePath(e ast.Expr) ([]*ast.AxisStep, bool) {
	switch x := e.(type) {
	case *ast.AxisStep:
		if len(x.Preds) == 0 && (x.Axis == ast.AxisChild || x.Axis == ast.AxisAttribute) {
			return []*ast.AxisStep{x}, true
		}
	case *ast.Slash:
		l, ok := simplePath(x.L)
		if !ok {
			return nil, false
		}
		r, ok := x.R.(*ast.AxisStep)
		if !ok || len(r.Preds) != 0 || (r.Axis != ast.AxisChild && r.Axis != ast.AxisAttribute) {
			return nil, false
		}
		return append(l, r), true
	}
	return nil, false
}

// matchesValueSet reports whether any node reached from n through the
// step chain has a string value in set — the existential `path = values`
// comparison, evaluated without materializing any sequence. Each step
// runs through the step kernel into a stack buffer.
func matchesValueSet(n xdm.NodeRef, steps []*ast.AxisStep, set map[string]struct{}, noIndex bool, counts *xdm.IndexCounts) bool {
	var buf [16]int32
	st := steps[0]
	for _, pre := range xdm.Step(buf[:0], n, st.Axis, st.Test, noIndex, counts) {
		m := xdm.NodeRef{D: n.D, Pre: pre}
		if len(steps) == 1 {
			if _, ok := set[m.StringValue()]; ok {
				return true
			}
		} else if matchesValueSet(m, steps[1:], set, noIndex, counts) {
			return true
		}
	}
	return false
}
