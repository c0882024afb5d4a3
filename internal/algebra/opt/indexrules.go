package opt

import (
	"repro/internal/algebra"
	"repro/internal/xdm"
)

// Value-equality pushdown: a σ on a step's atomized result moves into the
// step itself (Node.ValEq), where the executor applies it to each context
// node's matches once, before they are memoized and fanned out per row.
//
// semiJoinRules pushes a value-equality σ into the stepped column. The
// compiler lowers `step[pred = "const"]` to a semijoin whose left input
// atomizes the step result (π* → ⊚data → step) and whose right side
// atomizes an attached constant, joined on (iter-equality, item-equality).
// When the constant is a string, the item-equality pred over the atomized
// step column decides exactly `match.StringValue() == const`: atomization
// of a node yields untyped(StringValue), and the general comparison of
// untyped against string is codepoint string equality with no error path
// (xdm.GeneralCompareItems). Every right-side row carries the same
// constant, so the semijoin keeps a left row iff (StringValue == const)
// AND a right row with matching iter exists — the pred decomposes, the
// value half moves into the step (Node.ValEq), and the remaining preds
// keep the semijoin's row semantics (which is why at least one other pred
// must remain: a pred-less semijoin against an empty right side would
// change meaning). Only π links and the single ⊚data may sit between the
// semijoin and the step — they are row-wise and value-preserving — and
// every link must be unshared (parents == 1), so the cloned filtered chain
// replaces the only consumer. Numeric constants stay out: untyped-vs-
// numeric comparison casts both sides to xs:double, which is not string
// equality and can raise dynamic errors the filter would suppress.

// semiJoinRules pushes an eligible value-equality pred of a ⋉ into the
// stepped column of its left input (see the file comment for soundness).
func (r *rewriter) semiJoinRules(old, n *algebra.Node) *algebra.Node {
	if len(n.Preds) < 2 {
		return n
	}
	for i, p := range n.Preds {
		if p.Cmp != algebra.NumEq {
			continue
		}
		val, ok := constStringFor(n.Kids[1], p.R)
		if !ok {
			continue
		}
		left, ok := r.pushValEq(n.Kids[0], p.L, val)
		if !ok {
			continue
		}
		preds := make([]algebra.JoinPred, 0, len(n.Preds)-1)
		preds = append(preds, n.Preds[:i]...)
		preds = append(preds, n.Preds[i+1:]...)
		m := copyWithKids(n, []*algebra.Node{left, n.Kids[1]})
		m.Preds = preds
		return m
	}
	return n
}

// constStringFor walks the semijoin's right input through π renamings and
// the atomization of an attached constant, and returns the string constant
// the column col always carries; ok is false when the column is anything
// else (a non-constant, or a non-string constant).
func constStringFor(kid *algebra.Node, col string) (string, bool) {
	cur := kid
	for {
		switch cur.Op {
		case algebra.OpProject:
			mapped, ok := cur.ProjIn(col)
			if !ok {
				return "", false
			}
			col = mapped
			cur = cur.Kids[0]
		case algebra.OpNumOp:
			if cur.Col != col {
				// A producer of some other column; the value flows through.
				cur = cur.Kids[0]
				continue
			}
			if cur.Num != algebra.NumAtomize || len(cur.NumArgs) != 1 {
				return "", false
			}
			// data() over a string constant is the constant itself.
			col = cur.NumArgs[0]
			cur = cur.Kids[0]
		case algebra.OpAttach:
			if cur.Col != col {
				cur = cur.Kids[0]
				continue
			}
			if cur.Val.Kind() != xdm.KString {
				return "", false
			}
			return cur.Val.StringValue(), true
		default:
			return "", false
		}
	}
}

// pushValEq traces col through the semijoin's left input — unshared π
// links and exactly one ⊚data — to the step producing it, and returns a
// clone of the chain with the filter folded into the step. The chain must
// be unshared end to end: every link is cloned, and a shared link would
// leave another consumer reading the unfiltered original while this one
// re-steps redundantly. Nodes not in the parents map were minted this
// pass; the rule skips them and fires on a later pass, when the map keys
// them (the rewriter runs to fixed point).
func (r *rewriter) pushValEq(kid *algebra.Node, col string, val string) (*algebra.Node, bool) {
	var chain []*algebra.Node
	cur := kid
	atomized := false
	for {
		if r.parents[cur] != 1 {
			return nil, false
		}
		switch cur.Op {
		case algebra.OpProject:
			mapped, ok := cur.ProjIn(col)
			if !ok {
				return nil, false
			}
			col = mapped
			chain = append(chain, cur)
			cur = cur.Kids[0]
		case algebra.OpNumOp:
			if cur.Col != col {
				return nil, false
			}
			if atomized || cur.Num != algebra.NumAtomize || len(cur.NumArgs) != 1 {
				return nil, false
			}
			atomized = true
			col = cur.NumArgs[0]
			chain = append(chain, cur)
			cur = cur.Kids[0]
		case algebra.OpStep:
			if !atomized || cur.ItemCol != col || cur.ValEqSet {
				return nil, false
			}
			out := copyWithKids(cur, cur.Kids)
			out.ValEq = val
			out.ValEqSet = true
			for i := len(chain) - 1; i >= 0; i-- {
				out = copyWithKids(chain[i], []*algebra.Node{out})
			}
			return out, true
		default:
			return nil, false
		}
	}
}
