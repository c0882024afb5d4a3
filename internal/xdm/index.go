package xdm

import (
	"sort"
	"sync/atomic"
)

// This file is the document-level name/path index: per-(name, kind) sorted
// preorder posting lists plus a path summary (tag-path trie with per-path
// pre ranges). A posting list turns the executor's axis walks into merges —
// descendant::a over a context node is the (pre, pre+size] sub-slice of a's
// list, found by two binary searches — while the path summary records the
// document's tag shape for stats and planning. Indexes are immutable, built
// either lazily from the arena (XML parse, v1 snapshots) or attached
// zero-decode from a v2 `.xqs` snapshot (internal/store).

// PostingKey identifies one posting list: an element or attribute name.
// Only ElementNode and AttributeNode carry postings — the only kinds the
// step name tests select by name.
type PostingKey struct {
	Name string
	Kind NodeKind
}

// PathNode is one node of the path summary trie. Parent is the index of the
// parent path within Paths() (-1 for the root, which is the document node's
// empty path). Count is how many arena nodes lie on this tag path; MinPre
// and MaxPre bound their preorder ranks.
type PathNode struct {
	Name   string
	Kind   NodeKind
	Parent int32
	Count  int32
	MinPre int32
	MaxPre int32
}

// Index holds a document's immutable name/path index.
type Index struct {
	keys       []PostingKey
	lists      [][]int32
	byKey      map[PostingKey]int
	paths      []PathNode
	persistent bool  // decoded from a v2 snapshot rather than built in memory
	bytes      int64 // resident/serialized size of the index sections
}

// IndexCounts counts one evaluation's index-eligible steps, as the step
// kernel (step.go) resolves them: a probe is a step resolved against a
// posting list, a fallback is an index-eligible step that walked the arena
// instead (probe judged unprofitable). An evaluation counts into its own
// IndexCounts and adds it to the process-wide totals once, when it ends,
// so concurrent evaluations never contend on the totals per step.
type IndexCounts struct {
	Probes, Fallbacks int64
}

// count records one index-eligible step, probed or not; a nil c counts
// nothing.
func (c *IndexCounts) count(probed bool) {
	switch {
	case c == nil:
	case probed:
		c.Probes++
	default:
		c.Fallbacks++
	}
}

// Flush adds c to the process-wide totals and zeroes it.
func (c *IndexCounts) Flush() {
	if c.Probes != 0 {
		indexProbes.Add(c.Probes)
	}
	if c.Fallbacks != 0 {
		indexFallbacks.Add(c.Fallbacks)
	}
	*c = IndexCounts{}
}

// The process-wide probe/fallback totals, moved only by Flush. Exposed as
// monotonic totals through xq -store-stats and xqd /metrics.
var (
	indexProbes    atomic.Int64
	indexFallbacks atomic.Int64
)

// IndexCounters returns the process-wide probe/fallback totals of every
// evaluation that has ended.
func IndexCounters() (probes, fallbacks int64) {
	return indexProbes.Load(), indexFallbacks.Load()
}

// NewIndex assembles an Index from decoded snapshot sections. keys must be
// sorted in the canonical order (Kind, then Name) with lists parallel and
// each list ascending; bytes is the on-disk size of the index sections.
func NewIndex(keys []PostingKey, lists [][]int32, paths []PathNode, bytes int64) *Index {
	ix := &Index{keys: keys, lists: lists, paths: paths, persistent: true, bytes: bytes}
	ix.buildLookup()
	return ix
}

func (ix *Index) buildLookup() {
	ix.byKey = make(map[PostingKey]int, len(ix.keys))
	for i, k := range ix.keys {
		ix.byKey[k] = i
	}
}

// PostingsFor returns the ascending preorder ranks of every node with the
// given name and kind (nil when none). The slice is shared — callers must
// not mutate it.
func (ix *Index) PostingsFor(name string, kind NodeKind) []int32 {
	i, ok := ix.byKey[PostingKey{Name: name, Kind: kind}]
	if !ok {
		return nil
	}
	return ix.lists[i]
}

// DescendantsInRange returns the postings for (name, kind) restricted to
// the half-open window (lo, hi] — exactly a context node's subtree window
// (pre, pre+size]. The result is an ascending sub-slice of the posting
// list, shared with the index.
func (ix *Index) DescendantsInRange(name string, kind NodeKind, lo, hi int32) []int32 {
	list := ix.PostingsFor(name, kind)
	if len(list) == 0 {
		return nil
	}
	a := sort.Search(len(list), func(i int) bool { return list[i] > lo })
	b := sort.Search(len(list), func(i int) bool { return list[i] > hi })
	return list[a:b]
}

// Keys returns the posting keys in canonical order (shared slice).
func (ix *Index) Keys() []PostingKey { return ix.keys }

// List returns the i'th posting list (parallel to Keys; shared slice).
func (ix *Index) List(i int) []int32 { return ix.lists[i] }

// Paths returns the path summary in discovery (preorder) order, root first
// (shared slice).
func (ix *Index) Paths() []PathNode { return ix.paths }

// Persistent reports whether the index came from a v2 snapshot (true) or
// was built in memory from the arena (false).
func (ix *Index) Persistent() bool { return ix.persistent }

// Bytes is the index's approximate resident size — the decoded section
// bytes for a persistent index, the in-memory structure size otherwise.
func (ix *Index) Bytes() int64 { return ix.bytes }

// IndexInfo is the monitoring view of a document's index state.
type IndexInfo struct {
	Present    bool  // an index exists (attached or already built)
	Persistent bool  // it was loaded from a v2 snapshot
	Lists      int   // posting lists
	Paths      int   // path summary nodes
	Bytes      int64 // approximate index size
}

// Index returns the document's name/path index, building it from the arena
// on first use when no persistent index was attached at load time. Safe for
// concurrent use; the build may race benignly (identical immutable results).
func (d *Document) Index() *Index {
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(d)
	if !d.idx.CompareAndSwap(nil, ix) {
		return d.idx.Load()
	}
	return ix
}

// attachIndex installs a snapshot-decoded index; called by NewDocument
// before the document is published.
func (d *Document) attachIndex(ix *Index) { d.idx.Store(ix) }

// IndexInfo reports the document's current index state without forcing a
// lazy build.
func (d *Document) IndexInfo() IndexInfo {
	ix := d.idx.Load()
	if ix == nil {
		return IndexInfo{}
	}
	return IndexInfo{
		Present:    true,
		Persistent: ix.persistent,
		Lists:      len(ix.keys),
		Paths:      len(ix.paths),
		Bytes:      ix.bytes,
	}
}

// buildIndex scans the arena once in preorder, accumulating posting lists
// (ascending by construction) and the path summary trie.
func buildIndex(d *Document) *Index {
	ix := &Index{}
	byKey := map[PostingKey]int{}
	// nodePath[pre] is the path-trie index of the node at pre, for kinds
	// that extend paths (document/element/attribute); -1 otherwise.
	nodePath := make([]int32, len(d.kinds))
	type pathEdge struct {
		parent int32
		key    PostingKey
	}
	pathAt := map[pathEdge]int32{}
	for pre, kind := range d.kinds {
		nodePath[pre] = -1
		switch kind {
		case DocumentNode:
			ix.paths = append(ix.paths, PathNode{
				Kind: DocumentNode, Parent: -1,
				Count: 1, MinPre: int32(pre), MaxPre: int32(pre),
			})
			nodePath[pre] = int32(len(ix.paths) - 1)
		case ElementNode, AttributeNode:
			name := d.names[d.nameIDs[pre]]
			key := PostingKey{Name: name, Kind: kind}
			li, ok := byKey[key]
			if !ok {
				li = len(ix.keys)
				byKey[key] = li
				ix.keys = append(ix.keys, key)
				ix.lists = append(ix.lists, nil)
			}
			ix.lists[li] = append(ix.lists[li], int32(pre))

			parentPath := int32(-1)
			if p := d.parents[pre]; p >= 0 {
				parentPath = nodePath[p]
			}
			edge := pathEdge{parent: parentPath, key: key}
			pi, ok := pathAt[edge]
			if !ok {
				pi = int32(len(ix.paths))
				pathAt[edge] = pi
				ix.paths = append(ix.paths, PathNode{
					Name: name, Kind: kind, Parent: parentPath,
					MinPre: int32(pre), MaxPre: int32(pre),
				})
			}
			p := &ix.paths[pi]
			p.Count++
			if int32(pre) < p.MinPre {
				p.MinPre = int32(pre)
			}
			if int32(pre) > p.MaxPre {
				p.MaxPre = int32(pre)
			}
			nodePath[pre] = pi
		}
	}
	// Canonical key order: kind-major, then name — the order the snapshot
	// writer serializes, so built and persistent indexes agree exactly.
	perm := make([]int, len(ix.keys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ka, kb := ix.keys[perm[a]], ix.keys[perm[b]]
		if ka.Kind != kb.Kind {
			return ka.Kind < kb.Kind
		}
		return ka.Name < kb.Name
	})
	keys := make([]PostingKey, len(ix.keys))
	lists := make([][]int32, len(ix.lists))
	for i, p := range perm {
		keys[i] = ix.keys[p]
		lists[i] = ix.lists[p]
	}
	ix.keys, ix.lists = keys, lists
	ix.buildLookup()
	var sz int64
	for i := range ix.lists {
		sz += int64(len(ix.lists[i]))*4 + int64(len(ix.keys[i].Name)) + 16
	}
	sz += int64(len(ix.paths)) * 20
	ix.bytes = sz
	return ix
}
