package xdm

import "repro/internal/xq/ast"

// This file is the one axis-step kernel: the paper's XPath step-join
// operator as a pure function of (context node, axis, node test) over the
// pre/size/level encoding. Both engines call Step — the tree interpreter
// per context item, the relational executor per distinct context node —
// and nothing else in the repository walks an axis or matches a node test.
//
// A concrete-name child/descendant/attribute step can be answered two
// ways: by walking the arena, or by cutting the name's sorted posting list
// to the context subtree window (pre, pre+size] with two binary searches.
// Posting lists are ascending pre order — the order every forward walk
// produces — so both ways append identical values, and the choice between
// them is made here, per call, from what the kernel can observe.

// probeMinWindow is the smallest subtree a probe bothers with. Below it
// the walk touches a handful of contiguous arena entries, while the probe
// pays two binary searches over a posting list that may span the whole
// document — cache-missing log(L) work that loses to any tiny walk. Steps
// inside fixpoint bodies mostly see small windows (one person, one
// patient), so this gate is what keeps per-round cost from regressing;
// the probe's win lives in large windows (document roots, section roots).
const probeMinWindow = 256

// childProbeFanout caps how many window candidates a child/attribute probe
// will filter by parent before the direct walk is judged cheaper: the walk
// visits each child once, the probe visits each same-named descendant once.
const childProbeFanout = 4

// noKind is a node kind no arena node carries (a test that matches nothing).
const noKind NodeKind = 0xff

// nodeMatcher is a node test resolved against its axis once per step, so
// the per-node check in the walks is two compares.
type nodeMatcher struct {
	any  bool     // node(): every kind
	kind NodeKind // the one kind the test selects
	name string   // required name; "" accepts any
}

// newNodeMatcher resolves a node test; the principal node kind of the
// attribute axis is attribute, of every other axis element.
func newNodeMatcher(t ast.NodeTest, axis ast.Axis) nodeMatcher {
	name := t.Name
	if name == "*" {
		name = ""
	}
	switch t.Kind {
	case ast.TestName:
		if axis == ast.AxisAttribute {
			return nodeMatcher{kind: AttributeNode, name: name}
		}
		return nodeMatcher{kind: ElementNode, name: name}
	case ast.TestAnyKind:
		return nodeMatcher{any: true}
	case ast.TestText:
		return nodeMatcher{kind: TextNode}
	case ast.TestComment:
		return nodeMatcher{kind: CommentNode}
	case ast.TestPI:
		return nodeMatcher{kind: PINode, name: t.Name}
	case ast.TestElement:
		return nodeMatcher{kind: ElementNode, name: name}
	case ast.TestAttr:
		return nodeMatcher{kind: AttributeNode, name: name}
	case ast.TestDocument:
		return nodeMatcher{kind: DocumentNode}
	}
	return nodeMatcher{kind: noKind}
}

func (m nodeMatcher) match(nd *nodeData) bool {
	return m.any || nd.kind == m.kind && (m.name == "" || nd.name == m.name)
}

// MatchesTest reports whether n passes the node test t of a step over axis.
func (n NodeRef) MatchesTest(t ast.NodeTest, axis ast.Axis) bool {
	return newNodeMatcher(t, axis).match(n.data())
}

// indexEligible reports whether a step's matches are exactly a posting-list
// cut: a forward downward axis with a concrete (non-wildcard) name test for
// that axis's principal node kind — the only kinds the index carries.
// Attribute tests on child and descendant axes are excluded: those walks
// never yield attributes.
func indexEligible(axis ast.Axis, t ast.NodeTest) bool {
	if t.Name == "" || t.Name == "*" {
		return false
	}
	switch axis {
	case ast.AxisChild, ast.AxisDescendant, ast.AxisDescendantOrSelf:
		return t.Kind == ast.TestName || t.Kind == ast.TestElement
	case ast.AxisAttribute:
		return t.Kind == ast.TestName || t.Kind == ast.TestAttr
	}
	return false
}

// Step appends to dst the preorder ranks of the nodes reached from n over
// axis that pass test t, in axis order (document order on forward axes,
// reverse document order on reverse axes), and returns the extended slice.
// Every axis stays inside n's document, so the ranks identify the matches
// together with n.D. It allocates only when dst must grow.
//
// noIndex forces the arena walk; otherwise an index-eligible step probes the
// document's name index when that is judged cheaper, counted as a probe, or
// walks after all, counted as a fallback (IndexCounters). Probed and walked
// results are identical.
func Step(dst []int32, n NodeRef, axis ast.Axis, t ast.NodeTest, noIndex bool) []int32 {
	nodes := n.D.nodes
	self := &nodes[n.Pre]
	m := newNodeMatcher(t, axis)
	if !noIndex && indexEligible(axis, t) {
		if out, ok := probeStep(dst, n, axis, m); ok {
			indexProbes.Add(1)
			return out
		}
		indexFallbacks.Add(1)
	}
	end := n.Pre + self.size // last slot of n's subtree
	switch axis {
	case ast.AxisSelf:
		if m.match(self) {
			dst = append(dst, n.Pre)
		}
	case ast.AxisChild:
		for i := n.Pre + 1; i <= end; {
			nd := &nodes[i]
			if nd.kind == AttributeNode {
				i++
				continue
			}
			if m.match(nd) {
				dst = append(dst, i)
			}
			i += nd.size + 1
		}
	case ast.AxisAttribute:
		if self.kind != ElementNode {
			break
		}
		for i := n.Pre + 1; i <= end && nodes[i].kind == AttributeNode && nodes[i].parent == n.Pre; i++ {
			if m.match(&nodes[i]) {
				dst = append(dst, i)
			}
		}
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		if axis == ast.AxisDescendantOrSelf && m.match(self) {
			dst = append(dst, n.Pre)
		}
		for i := n.Pre + 1; i <= end; i++ {
			if nd := &nodes[i]; nd.kind != AttributeNode && m.match(nd) {
				dst = append(dst, i)
			}
		}
	case ast.AxisParent:
		if self.parent >= 0 && m.match(&nodes[self.parent]) {
			dst = append(dst, self.parent)
		}
	case ast.AxisAncestor, ast.AxisAncestorOrSelf:
		if axis == ast.AxisAncestorOrSelf && m.match(self) {
			dst = append(dst, n.Pre)
		}
		for p := self.parent; p >= 0; p = nodes[p].parent {
			if m.match(&nodes[p]) {
				dst = append(dst, p)
			}
		}
	case ast.AxisFollowingSibling:
		// Attribute nodes have no siblings. Past n's subtree, every slot
		// reached by subtree-sized hops inside the parent is a sibling.
		if self.kind == AttributeNode || self.parent < 0 {
			break
		}
		pend := self.parent + nodes[self.parent].size
		for i := end + 1; i <= pend; {
			nd := &nodes[i]
			if m.match(nd) {
				dst = append(dst, i)
			}
			i += nd.size + 1
		}
	case ast.AxisPrecedingSibling:
		// The slot before a sibling is the last slot of the previous
		// sibling's subtree (or one of the parent's attributes, which end
		// the walk): climbing parent links from it lands on that sibling.
		if self.kind == AttributeNode || self.parent < 0 {
			break
		}
		p := self.parent
		for i := n.Pre - 1; i > p; i-- {
			for nodes[i].parent != p {
				i = nodes[i].parent
			}
			nd := &nodes[i]
			if nd.kind == AttributeNode {
				break
			}
			if m.match(nd) {
				dst = append(dst, i)
			}
		}
	case ast.AxisFollowing:
		// Everything after n's subtree, attributes excluded; ancestors all
		// precede n, so none can appear. An attribute's "subtree" is itself:
		// its owner's children follow it in document order.
		for i := end + 1; i < int32(len(nodes)); i++ {
			if nd := &nodes[i]; nd.kind != AttributeNode && m.match(nd) {
				dst = append(dst, i)
			}
		}
	case ast.AxisPreceding:
		// Everything before n except attributes and ancestors; i < n.Pre is
		// an ancestor of n exactly when its subtree window reaches n.
		for i := n.Pre - 1; i > 0; i-- {
			nd := &nodes[i]
			if nd.kind == AttributeNode || i+nd.size >= n.Pre {
				continue
			}
			if m.match(nd) {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// probeStep answers an index-eligible step from the name's posting list cut
// to n's subtree window; ok is false when the walk is judged cheaper (a
// small window, or child/attribute over a dense one).
func probeStep(dst []int32, n NodeRef, axis ast.Axis, m nodeMatcher) (out []int32, ok bool) {
	size := n.Size()
	if size < probeMinWindow {
		return dst, false
	}
	pres := n.D.Index().DescendantsInRange(m.name, m.kind, n.Pre, n.Pre+size)
	switch axis {
	case ast.AxisChild, ast.AxisAttribute:
		// The walk touches each child/attribute once, the probe every
		// same-named descendant in the window, and the child count is
		// unknown without walking: probe only when candidates are few
		// absolutely or rare relative to the subtree.
		if len(pres) > childProbeFanout && int32(len(pres)) > size/64 {
			return dst, false
		}
		for _, p := range pres {
			if n.D.nodes[p].parent == n.Pre {
				dst = append(dst, p)
			}
		}
		return dst, true
	case ast.AxisDescendantOrSelf:
		if m.match(n.data()) {
			dst = append(dst, n.Pre)
		}
	}
	return append(dst, pres...), true
}
