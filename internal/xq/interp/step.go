package interp

import (
	"repro/internal/xdm"
	"repro/internal/xq/ast"
)

// evalSlash implements e1/e2: for each node of e1 (in its sequence order,
// with context position/size set), evaluate e2; an all-node combined result
// is returned in distinct document order, an all-atomic result in
// evaluation order (XQuery's mixed-result rule XPTY0018 otherwise).
func (ev *evaluator) evalSlash(n *ast.Slash, en *env, ctx dynCtx) (xdm.Sequence, error) {
	left, err := ev.eval(n.L, en, ctx)
	if err != nil {
		return nil, err
	}
	for _, it := range left {
		if !it.IsNode() {
			return nil, xdm.NewError(xdm.ErrType, "path step applied to non-node")
		}
	}
	var out xdm.Sequence
	nodes, atomics := false, false
	size := int64(len(left))
	for i, it := range left {
		stepCtx := dynCtx{item: it, ok: true, pos: int64(i + 1), size: size}
		v, err := ev.eval(n.R, en, stepCtx)
		if err != nil {
			return nil, err
		}
		for _, r := range v {
			if r.IsNode() {
				nodes = true
			} else {
				atomics = true
			}
		}
		out = append(out, v...)
	}
	if nodes && atomics {
		return nil, xdm.NewError(xdm.ErrType, "path result mixes nodes and atomic values")
	}
	if atomics {
		return out, nil
	}
	return xdm.DDO(out)
}

// evalAxisStep evaluates one axis step against the context item. Result
// nodes are delivered in document order; predicates see axis order (reverse
// axes count positions backwards, per XPath).
func (ev *evaluator) evalAxisStep(n *ast.AxisStep, en *env, ctx dynCtx) (xdm.Sequence, error) {
	if !ctx.ok {
		return nil, xdm.NewError(xdm.ErrCtxItem, "axis step without context item")
	}
	if !ctx.item.IsNode() {
		return nil, xdm.NewError(xdm.ErrType, "axis step applied to atomic value")
	}
	node := ctx.item.Node()
	// The scratch is free again before any predicate runs (and re-enters
	// this function): the ranks are turned into items first.
	ev.stepBuf = xdm.Step(ev.stepBuf[:0], node, n.Axis, n.Test, ev.engine.opts.NoIndex, &ev.index)
	var selected xdm.Sequence
	if len(ev.stepBuf) > 0 {
		selected = make(xdm.Sequence, len(ev.stepBuf))
		for i, pre := range ev.stepBuf {
			selected[i] = xdm.NewNode(xdm.NodeRef{D: node.D, Pre: pre})
		}
	}
	filtered, err := ev.applyPreds(selected, n.Preds, en)
	if err != nil {
		return nil, err
	}
	if n.Axis.Reverse() {
		// Axis order is reverse document order; flip back for the result.
		for i, j := 0, len(filtered)-1; i < j; i, j = i+1, j-1 {
			filtered[i], filtered[j] = filtered[j], filtered[i]
		}
	}
	return filtered, nil
}

// applyPreds filters a sequence through predicates. A predicate whose
// value is a single numeric item is positional (position() = value);
// otherwise its effective boolean value decides.
func (ev *evaluator) applyPreds(items xdm.Sequence, preds []ast.Expr, en *env) (xdm.Sequence, error) {
	for _, p := range preds {
		// Fast path for constant positional predicates like [1].
		if lit, ok := p.(*ast.Literal); ok && lit.Kind == ast.LitInteger {
			idx := lit.Int
			if idx >= 1 && idx <= int64(len(items)) {
				items = xdm.Sequence{items[idx-1]}
			} else {
				items = nil
			}
			continue
		}
		hp, err := ev.hoistCmp(p, en, len(items))
		if err != nil {
			return nil, err
		}
		var kept xdm.Sequence
		size := int64(len(items))
		for i, it := range items {
			pctx := dynCtx{item: it, ok: true, pos: int64(i + 1), size: size}
			var keep bool
			if hp != nil {
				keep, err = ev.evalCmpPred(hp, en, pctx)
				if err != nil {
					return nil, err
				}
			} else {
				v, err := ev.eval(p, en, pctx)
				if err != nil {
					return nil, err
				}
				if len(v) == 1 && v[0].IsNumeric() {
					keep = v[0].NumberValue() == float64(i+1)
				} else {
					keep, err = xdm.EBV(v)
					if err != nil {
						return nil, err
					}
				}
			}
			if keep {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}
