package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/leaktest"
	"repro/internal/xdm"
)

// graphDoc builds a document whose element nodes form the vertex set of a
// directed graph, plus a successor payload over an adjacency list. This is
// the relational-style harness for the IFP loop: closure via the
// fixpoint must equal closure via plain BFS.
func graphDoc(n int) (*xdm.Document, []xdm.NodeRef) {
	b := xdm.NewBuilder("graph")
	b.StartElement("g")
	for i := 0; i < n; i++ {
		b.StartElement("v")
		b.EndElement()
	}
	b.EndElement()
	d := b.Done()
	var verts []xdm.NodeRef
	for pre := int32(1); pre < int32(d.Len()); pre++ {
		nd := xdm.NodeRef{D: d, Pre: pre}
		if nd.Kind() == xdm.ElementNode && nd.Name() == "v" {
			verts = append(verts, nd)
		}
	}
	return d, verts
}

// Payload is the recursion body e_rec regarded as a function of the
// recursion variable: it maps the node sequence bound to $x to e_rec($x).
type Payload func(xdm.Sequence) (xdm.Sequence, error)

// seqBody adapts a Payload to Body the way the interpreter does: bind the
// feed as a sequence and hand the answer back as iteration 0 of a batch.
type seqBody struct {
	payload Payload
	out     xdm.Family
}

func (b *seqBody) Step(feed *xdm.Family) (*xdm.Family, error) {
	out, err := b.payload(xdm.NodeSeq(feed.Nodes(0)))
	if err != nil {
		return nil, err
	}
	return b.batch(out)
}

// batch refills the batch with s as iteration 0; the family type-checks
// the items.
func (b *seqBody) batch(s xdm.Sequence) (*xdm.Family, error) {
	b.out.Reset()
	for _, it := range s {
		if err := b.out.Add(0, it); err != nil {
			return nil, err
		}
	}
	return &b.out, nil
}

// runWith runs one fixpoint of payload from seed under cfg through the
// registry and Run's loop; roundCap > 0 lowers the divergence cap so tests
// can reach it.
func runWith(alg Algorithm, seed xdm.Sequence, payload Payload, cfg Config, roundCap int) (xdm.Sequence, Stats, error) {
	body := &seqBody{payload: payload}
	batch, err := body.batch(seed)
	if err != nil {
		return nil, Stats{}, err
	}
	if roundCap <= 0 {
		roundCap = RoundCap
	}
	x := NewSites[int, *Site](cfg).Enter(0, func() (*Site, string) { return &Site{Algorithm: alg}, alg.String() })
	res, err := run(x, batch, body, roundCap)
	if err != nil {
		return nil, x.site.Stats, err
	}
	return xdm.NodeSeq(res.Nodes(0)), x.site.Stats, nil
}

func successorPayload(verts []xdm.NodeRef, adj [][]int) Payload {
	index := map[xdm.NodeRef]int{}
	for i, v := range verts {
		index[v] = i
	}
	return func(xs xdm.Sequence) (xdm.Sequence, error) {
		var out xdm.Sequence
		for _, it := range xs {
			for _, succ := range adj[index[it.Node()]] {
				out = append(out, xdm.NewNode(verts[succ]))
			}
		}
		return out, nil
	}
}

// bfsClosure is the reference transitive closure (successors of seeds,
// transitively, excluding unreachable seeds themselves unless revisited).
func bfsClosure(adj [][]int, seeds []int) map[int]bool {
	seen := map[int]bool{}
	frontier := append([]int{}, seeds...)
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, s := range adj[v] {
				if !seen[s] {
					seen[s] = true
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return seen
}

func TestNaiveDeltaChain(t *testing.T) {
	_, verts := graphDoc(6)
	adj := [][]int{{1}, {2}, {3}, {4}, {5}, {}}
	payload := successorPayload(verts, adj)
	seed := xdm.Sequence{xdm.NewNode(verts[0])}

	resN, stN, err := runWith(Naive, seed, payload, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	resD, stD, err := runWith(Delta, seed, payload, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resN) != 5 || len(resD) != 5 {
		t.Fatalf("closure sizes: naive %d, delta %d, want 5", len(resN), len(resD))
	}
	eq, _ := xdm.SetEqual(resN, resD)
	if !eq {
		t.Errorf("naive and delta disagree on a chain")
	}
	if stN.Depth != stD.Depth {
		t.Errorf("depths differ: naive %d, delta %d", stN.Depth, stD.Depth)
	}
	if stN.Depth != 5 {
		t.Errorf("chain depth = %d, want 5", stN.Depth)
	}
	// Naïve refeeds the accumulated set: strictly more nodes.
	if stN.NodesFedBack <= stD.NodesFedBack {
		t.Errorf("naive fed %d <= delta fed %d", stN.NodesFedBack, stD.NodesFedBack)
	}
}

func TestCycleTerminates(t *testing.T) {
	_, verts := graphDoc(3)
	adj := [][]int{{1}, {2}, {0}} // 3-cycle
	payload := successorPayload(verts, adj)
	seed := xdm.Sequence{xdm.NewNode(verts[0])}
	res, st, err := runWith(Delta, seed, payload, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("cycle closure = %d, want 3", len(res))
	}
	if st.ResultSize != 3 {
		t.Errorf("ResultSize = %d", st.ResultSize)
	}
}

func TestEmptySeed(t *testing.T) {
	_, verts := graphDoc(2)
	payload := successorPayload(verts, [][]int{{1}, {}})
	resN, _, err := runWith(Naive, nil, payload, Config{}, 0)
	if err != nil || len(resN) != 0 {
		t.Errorf("naive on empty seed: %v, %v", resN, err)
	}
	resD, _, err := runWith(Delta, nil, payload, Config{}, 0)
	if err != nil || len(resD) != 0 {
		t.Errorf("delta on empty seed: %v, %v", resD, err)
	}
}

func TestSeedTypeError(t *testing.T) {
	payload := func(xs xdm.Sequence) (xdm.Sequence, error) { return nil, nil }
	if _, _, err := runWith(Naive, xdm.Sequence{xdm.NewInteger(1)}, payload, Config{}, 0); xdm.CodeOf(err) != xdm.ErrType {
		t.Errorf("atomic seed: %v", err)
	}
	_, verts := graphDoc(1)
	bad := func(xs xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Sequence{xdm.NewInteger(1)}, nil
	}
	if _, _, err := runWith(Naive, xdm.NodeSeq(verts), bad, Config{}, 0); xdm.CodeOf(err) != xdm.ErrType {
		t.Errorf("atomic body result: %v", err)
	}
}

func TestDivergenceGuard(t *testing.T) {
	// A payload that mints a fresh node per call models a constructor
	// body: the IFP is undefined (Definition 2.1) and must be cut off.
	payload := func(xs xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Sequence{xdm.NewNode(xdm.NewLeafDoc(xdm.TextNode, "", "t"))}, nil
	}
	_, verts := graphDoc(1)
	_, _, err := runWith(Naive, xdm.NodeSeq(verts), payload, Config{}, 32)
	if xdm.CodeOf(err) != xdm.ErrIFP {
		t.Errorf("naive divergence: %v", err)
	}
	_, _, err = runWith(Delta, xdm.NodeSeq(verts), payload, Config{}, 32)
	if xdm.CodeOf(err) != xdm.ErrIFP {
		t.Errorf("delta divergence: %v", err)
	}
}

// TestRunWithCancellation cancels mid-computation: the run must return the
// context's error and leave no goroutine behind.
func TestRunWithCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	seed, payload := chainFixture(40)
	for _, alg := range []Algorithm{Naive, Delta} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		counting := func(xs xdm.Sequence) (xdm.Sequence, error) {
			calls++
			if calls == 3 {
				cancel()
			}
			return payload(xs)
		}
		_, _, err := runWith(alg, seed, counting, Config{Context: ctx}, 0)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: got %v, want context.Canceled", alg, err)
		}
		if calls != 3 {
			t.Fatalf("%v: %d payload calls, want the run to stop after the cancelling third", alg, calls)
		}
	}
	leaktest.Wait(t, before)
}

// TestRunWithPayloadError checks a payload error in a later round surfaces
// unchanged under both algorithms.
func TestRunWithPayloadError(t *testing.T) {
	seed, payload := chainFixture(40)
	boom := errors.New("payload failed at round 4")
	for _, alg := range []Algorithm{Naive, Delta} {
		calls := 0
		failing := func(xs xdm.Sequence) (xdm.Sequence, error) {
			calls++
			if calls == 4 {
				return nil, boom
			}
			return payload(xs)
		}
		if _, _, err := runWith(alg, seed, failing, Config{}, 0); !errors.Is(err, boom) {
			t.Fatalf("%v: got %v, want %v", alg, err, boom)
		}
	}
}

// TestQuickNaiveEqualsDeltaOnDistributivePayloads is Theorem 3.2 as a
// property test: successor payloads over random graphs are distributive
// (they are unions of per-node images), so Naïve and Delta must agree, and
// both must equal the BFS reference closure.
func TestQuickNaiveEqualsDeltaOnDistributivePayloads(t *testing.T) {
	const n = 12
	_, verts := graphDoc(n)
	f := func(edges []uint16, seedSel uint16) bool {
		adj := make([][]int, n)
		for _, e := range edges {
			from := int(e) % n
			to := int(e>>4) % n
			adj[from] = append(adj[from], to)
		}
		var seeds []int
		var seedSeq xdm.Sequence
		for i := 0; i < n; i++ {
			if seedSel&(1<<i) != 0 {
				seeds = append(seeds, i)
				seedSeq = append(seedSeq, xdm.NewNode(verts[i]))
			}
		}
		payload := successorPayload(verts, adj)
		resN, stN, err := runWith(Naive, seedSeq, payload, Config{}, 0)
		if err != nil {
			return false
		}
		resD, stD, err := runWith(Delta, seedSeq, payload, Config{}, 0)
		if err != nil {
			return false
		}
		eq, err := xdm.SetEqual(resN, resD)
		if err != nil || !eq {
			return false
		}
		want := bfsClosure(adj, seeds)
		if len(want) != len(resD) {
			return false
		}
		for _, it := range resD {
			found := false
			for v := range want {
				if verts[v].Same(it.Node()) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// Delta never feeds more than Naïve.
		return stD.NodesFedBack <= stN.NodesFedBack
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickNonDistributiveDeltaMayDiverge documents the other direction:
// for a threshold payload (non-distributive), Delta can lose nodes that
// Naïve finds — but Delta's result is always a subset of Naïve's.
func TestQuickDeltaSubsetOfNaive(t *testing.T) {
	const n = 10
	_, verts := graphDoc(n)
	f := func(edges []uint16, seedSel uint16, threshold uint8) bool {
		adj := make([][]int, n)
		for _, e := range edges {
			adj[int(e)%n] = append(adj[int(e)%n], int(e>>4)%n)
		}
		var seedSeq xdm.Sequence
		for i := 0; i < n; i++ {
			if seedSel&(1<<i) != 0 {
				seedSeq = append(seedSeq, xdm.NewNode(verts[i]))
			}
		}
		base := successorPayload(verts, adj)
		// Non-distributive: answers only when the input is big enough.
		th := int(threshold%4) + 1
		payload := func(xs xdm.Sequence) (xdm.Sequence, error) {
			if len(xs) < th {
				return nil, nil
			}
			return base(xs)
		}
		resN, _, err := runWith(Naive, seedSeq, payload, Config{}, 0)
		if err != nil {
			return false
		}
		resD, _, err := runWith(Delta, seedSeq, payload, Config{}, 0)
		if err != nil {
			return false
		}
		inN := map[xdm.NodeRef]bool{}
		for _, it := range resN {
			inN[it.Node()] = true
		}
		for _, it := range resD {
			if !inN[it.Node()] {
				return false // Delta found something Naïve did not: impossible
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(123))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// fixedBody answers call k of an execution with the preallocated batch
// answers[k], the last one repeated, after reading the feed in document
// order as an engine does.
type fixedBody struct {
	answers []*xdm.Family
	k       int
}

func (b *fixedBody) Step(feed *xdm.Family) (*xdm.Family, error) {
	feed.Nodes(0)
	a := b.answers[min(b.k, len(b.answers)-1)]
	b.k++
	return a, nil
}

// TestSecondExecutionAllocatesNothing: a released res is the next
// execution's, so once a site's first execution has grown res's buffers,
// a whole second execution — seeding, every round's absorb, Naïve's
// per-round reads of res and the final read — allocates nothing. Each
// document shape takes a different read: a small document's dense bitmap
// is listed, a large document's sparse set and a two-document set are
// sorted and merged.
func TestSecondExecutionAllocatesNothing(t *testing.T) {
	small, _ := graphDoc(300)
	large, _ := graphDoc(20000)
	other, _ := graphDoc(50)
	shapes := []struct {
		name string
		node func(i int) xdm.NodeRef // the i-th of the 120 nodes the body reaches
	}{
		{"dense", func(i int) xdm.NodeRef { return xdm.NodeRef{D: small, Pre: int32(1 + 2*i)} }},
		{"sparse", func(i int) xdm.NodeRef { return xdm.NodeRef{D: large, Pre: int32(1 + 97*i)} }},
		{"two documents", func(i int) xdm.NodeRef {
			if i%3 == 0 {
				return xdm.NodeRef{D: other, Pre: int32(1 + i/3)}
			}
			return xdm.NodeRef{D: small, Pre: int32(1 + 2*i)}
		}},
	}
	for _, shape := range shapes {
		for _, alg := range []Algorithm{Naive, Delta} {
			t.Run(shape.name+"/"+alg.String(), func(t *testing.T) {
				// Round k answers the nodes i ≡ k (mod 4), so every round's
				// nodes fall between the ones earlier rounds found; the
				// last answer repeats and brings nothing new.
				var seed xdm.Family
				seed.AddNodes(0, []xdm.NodeRef{shape.node(0)})
				answers := make([]*xdm.Family, 5)
				for k := range answers {
					answers[k] = new(xdm.Family)
					for i := min(k, 3); i < 120; i += 4 {
						answers[k].AddNodes(0, []xdm.NodeRef{shape.node(i)})
					}
				}
				body := &fixedBody{answers: answers}
				x := NewSites[int, *Site](Config{}).Enter(0, func() (*Site, string) { return &Site{Algorithm: alg}, alg.String() })
				execute := func() {
					body.k = 0
					res, err := Run(x, &seed, body)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Nodes(0); len(got) != 120 || !got[0].Before(got[1]) {
						t.Fatalf("res holds %d nodes, want 120 in document order", len(got))
					}
					x.Release(res)
				}
				execute() // grow res's buffers
				if allocs := testing.AllocsPerRun(20, execute); allocs != 0 {
					t.Fatalf("a second execution of the site: %v allocs, want 0", allocs)
				}
			})
		}
	}
	// A tabled execution that reuses the site's table and finds every fed
	// node in it allocates nothing either: no map insert, no entry, no
	// batch regrowth.
	_, verts := graphDoc(120)
	chain := make([][]int, len(verts))
	for i := range len(verts) - 1 {
		chain[i] = []int{i + 1}
	}
	for _, alg := range []Algorithm{Naive, Delta} {
		t.Run("tabled/"+alg.String(), func(t *testing.T) {
			x := tabledSite(alg, Config{})
			body := newTableBody(verts, chain, nil)
			var seed xdm.Family
			seed.AddNodes(0, verts[:1])
			execute := func() {
				res, err := Run(x, &seed, body)
				if err != nil {
					t.Fatal(err)
				}
				x.Release(res)
			}
			x.Table = FreshTable
			execute()
			x.Table = ReuseTable
			hits := x.site.TableHits
			if allocs := testing.AllocsPerRun(20, execute); allocs != 0 {
				t.Fatalf("a second tabled execution of the site: %v allocs, want 0", allocs)
			}
			if len(body.asked) != len(verts) || x.site.BodyInputs() != int64(len(verts)) || x.site.TableHits == hits {
				t.Fatalf("%d nodes asked, %d body inputs; want each of the %d once", len(body.asked), x.site.BodyInputs(), len(verts))
			}
		})
	}
}

// nestingBody re-enters its own site from inside Step, the way a body
// calling a recursive function that holds the site does: under Naïve the
// feed is the execution's live res, and every nested execution, run while
// the outer ones are live, must take a res of its own.
type nestingBody struct {
	t     *testing.T
	x     Exec
	verts []xdm.NodeRef
	live  []*xdm.Family // the feeds, that is the res, of the executions under way
	out   []xdm.Family  // one batch per nesting level
	runs  int
}

func (b *nestingBody) Step(feed *xdm.Family) (*xdm.Family, error) {
	level := len(b.live)
	b.live = append(b.live, feed)
	defer func() { b.live = b.live[:level] }()
	out := &b.out[level]
	out.Reset()
	for _, n := range feed.Nodes(0) {
		i := int(n.Pre - b.verts[0].Pre)
		if i+1 < len(b.verts) {
			out.AddNodes(0, []xdm.NodeRef{b.verts[i+1]})
		}
	}
	if level+1 < len(b.out) && b.runs < 200 {
		b.runs++
		var seed xdm.Family
		seed.AddNodes(0, feed.Nodes(0)[:1])
		res, err := Run(b.x, &seed, b)
		if err != nil {
			return nil, err
		}
		for _, outer := range b.live {
			if res == outer {
				b.t.Fatalf("a nested execution at level %d received the live res of an outer one", level+1)
			}
		}
		b.x.Release(res)
	}
	return out, nil
}

// TestReentrantExecutionsTakeTheirOwnRes: executions of one site nested
// three deep, each released before its caller goes on, never share a res
// with an execution still under way (checked under Naïve, whose feed is
// res), and under both algorithms the outermost result is the chain's
// closure whatever the nested ones reused.
func TestReentrantExecutionsTakeTheirOwnRes(t *testing.T) {
	_, verts := graphDoc(12)
	for _, alg := range []Algorithm{Naive, Delta} {
		x := NewSites[int, *Site](Config{}).Enter(0, func() (*Site, string) { return &Site{Algorithm: alg}, alg.String() })
		body := &nestingBody{t: t, x: x, verts: verts, out: make([]xdm.Family, 3)}
		for range 2 {
			var seed xdm.Family
			seed.AddNodes(0, verts[:1])
			res, err := Run(x, &seed, body)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Nodes(0)
			if len(got) != len(verts)-1 || !got[0].Same(verts[1]) || !got[len(got)-1].Same(verts[len(verts)-1]) {
				t.Fatalf("%v: closure of the chain holds %d nodes, want %d", alg, len(got), len(verts)-1)
			}
			x.Release(res)
		}
		if body.runs == 0 || x.Site().Executions != 2+body.runs {
			t.Fatalf("%v: %d nested runs, %d executions", alg, body.runs, x.Site().Executions)
		}
	}
}

// Site is the report of the execution's site.
func (x Exec) Site() *Site { return x.site }

// tableBody is a certified body over a graph's vertices: e(X) is base
// together with the successors of X's nodes, in every iteration. Step
// answers a whole feed; Answer answers nodes one at a time and counts, per
// node, the times it was asked, and the times e(∅) was, unless quiet.
// inAnswer, when set, runs inside every Answer call, before the answers
// are made.
type tableBody struct {
	verts    []xdm.NodeRef
	adj      [][]int
	base     []xdm.NodeRef
	asked    map[xdm.NodeRef]int
	empties  int
	quiet    bool
	inAnswer func()
	out      xdm.Family
}

func newTableBody(verts []xdm.NodeRef, adj [][]int, base []xdm.NodeRef) *tableBody {
	return &tableBody{verts: verts, adj: adj, base: base, asked: map[xdm.NodeRef]int{}}
}

func (b *tableBody) add(id int32, n xdm.NodeRef) {
	b.out.AddNodes(id, b.base)
	if n.D != nil {
		for _, s := range b.adj[n.Pre-b.verts[0].Pre] {
			b.out.AddNodes(id, b.verts[s:s+1])
		}
	}
}

func (b *tableBody) Step(feed *xdm.Family) (*xdm.Family, error) {
	b.out.Reset()
	for id := range feed.Iters() {
		b.out.AddNodes(id, b.base)
		for _, n := range feed.Nodes(id) {
			b.add(id, n)
		}
	}
	return &b.out, nil
}

func (b *tableBody) Answer(nodes []xdm.NodeRef) (*xdm.Family, error) {
	if b.inAnswer != nil {
		b.inAnswer()
	}
	b.out.Reset()
	for i, n := range nodes {
		switch {
		case b.quiet:
		case n.D == nil:
			b.empties++
		default:
			b.asked[n]++
		}
		b.add(int32(i), n)
	}
	return &b.out, nil
}

// tabledSite registers one Tabled site of algorithm alg.
func tabledSite(alg Algorithm, cfg Config) Exec {
	return NewSites[int, *Site](cfg).Enter(0, func() (*Site, string) {
		return &Site{Algorithm: alg, Tabled: true}, alg.String()
	})
}

// closure runs one execution of x from seed, one iteration per seed
// entry, and returns each iteration's result.
func closure(t *testing.T, x Exec, body Body, seed ...[]xdm.NodeRef) [][]xdm.NodeRef {
	t.Helper()
	var f xdm.Family
	for id, nodes := range seed {
		f.AddNodes(int32(id), nodes)
	}
	res, err := Run(x, &f, body)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]xdm.NodeRef, len(seed))
	for id := range seed {
		out[id] = append([]xdm.NodeRef(nil), res.Nodes(int32(id))...)
	}
	x.Release(res)
	return out
}

func sameNodes(a, b [][]xdm.NodeRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Same(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func randomGraph(rng *rand.Rand, n, edges int) [][]int {
	adj := make([][]int, n)
	for range edges {
		from := rng.Intn(n)
		adj[from] = append(adj[from], rng.Intn(n))
	}
	return adj
}

// TestTableAnswersEachNodeOnce: executions of a tabled site from every
// vertex of a random graph, the first starting a fresh table and the rest
// reusing it, ask the body for each node at most once over all of them,
// and answer what untabled executions answer. Every fed node the body was
// not asked for is a table hit, under Naïve (whose feed is res) and Delta
// alike.
func TestTableAnswersEachNodeOnce(t *testing.T) {
	_, verts := graphDoc(40)
	adj := randomGraph(rand.New(rand.NewSource(3)), len(verts), 70)
	for _, alg := range []Algorithm{Naive, Delta} {
		oracle := NewSites[int, *Site](Config{}).Enter(0, func() (*Site, string) { return &Site{Algorithm: alg}, "" })
		x := tabledSite(alg, Config{})
		body := newTableBody(verts, adj, nil)
		for i, v := range verts {
			x.Table = ReuseTable
			if i == 0 {
				x.Table = FreshTable
			}
			got := closure(t, x, body, []xdm.NodeRef{v})
			if want := closure(t, oracle, newTableBody(verts, adj, nil), []xdm.NodeRef{v}); !sameNodes(got, want) {
				t.Fatalf("%v from vertex %d: tabled %v, untabled %v", alg, i, got, want)
			}
		}
		var misses int64
		for n, k := range body.asked {
			if k != 1 {
				t.Fatalf("%v: node %d asked %d times", alg, n.Pre, k)
			}
			misses++
		}
		site := x.site
		if site.TableHits != site.Stats.NodesFedBack-misses || site.BodyInputs() != misses {
			t.Fatalf("%v: %d fed, %d misses, %d table hits", alg, site.Stats.NodesFedBack, misses, site.TableHits)
		}
		if site.Stats != oracle.site.Stats {
			t.Fatalf("%v: tabled counters %+v, untabled %+v", alg, site.Stats, oracle.site.Stats)
		}
	}
}

// TestTableAnswersEmptySetOnce: iterations seeded empty take e(∅), the
// body's constant part, which no fed node's entry holds: the body is asked
// for it once per table, however many iterations and executions need it,
// and those iterations then close over it like a seed.
func TestTableAnswersEmptySetOnce(t *testing.T) {
	_, verts := graphDoc(12)
	adj := make([][]int, len(verts))
	for i := range len(verts) - 1 {
		adj[i] = []int{i + 1}
	}
	base := verts[8:9]
	x := tabledSite(Delta, Config{})
	body := newTableBody(verts, adj, base)
	x.EmptySeeded = []int32{1, 3}
	for _, use := range []Tabling{FreshTable, ReuseTable} {
		x.Table = use
		got := closure(t, x, body, verts[0:1], nil, verts[5:6], nil)
		for id, first := range []int{1, 8, 6, 8} {
			if want := verts[first:]; !sameNodes(got[id:id+1], [][]xdm.NodeRef{want}) {
				t.Fatalf("%v iteration %d: %d nodes, want the %d from vertex %d", use, id, len(got[id]), len(want), first)
			}
		}
		if body.empties != 1 {
			t.Fatalf("%v: e(∅) asked %d times, want once", use, body.empties)
		}
	}
}

// TestFreshTableInsideLeavesOuterTable: a fresh start made by an execution
// nested inside the body of a running one, of the same site, takes a table
// of its own. The outer execution, whose table is mid-round, still answers
// its closure right and asks for none of its nodes twice.
func TestFreshTableInsideLeavesOuterTable(t *testing.T) {
	_, verts := graphDoc(30)
	adj := randomGraph(rand.New(rand.NewSource(5)), len(verts), 50)
	want := closure(t, NewSites[int, *Site](Config{}).Enter(0, func() (*Site, string) { return &Site{Algorithm: Delta}, "" }),
		newTableBody(verts, adj, nil), verts[0:1])
	for _, use := range []Tabling{FreshTable, ReuseTable} {
		x := tabledSite(Delta, Config{})
		body := newTableBody(verts, adj, nil)
		nested := 0
		body.inAnswer = func() {
			if body.quiet {
				return
			}
			nested++
			inner := x
			inner.Table = FreshTable
			body.quiet = true
			closure(t, inner, body, verts[len(verts)-1:])
			body.quiet = false
		}
		x.Table = FreshTable
		body.quiet = true
		closure(t, x, body, verts[3:4]) // the table a reuse finds
		body.quiet = false
		x.Table = use
		if got := closure(t, x, body, verts[0:1]); !sameNodes(got, want) {
			t.Fatalf("%v: outer execution answered %v, want %v", use, got, want)
		}
		for n, k := range body.asked {
			if k > 1 {
				t.Fatalf("%v: outer execution asked node %d %d times", use, n.Pre, k)
			}
		}
		if nested == 0 {
			t.Fatalf("%v: no execution ran nested", use)
		}
	}
}

// TestTableEntriesChargeRowBudget: each new table entry is charged to the
// row budget once, on top of what an untabled execution charges, so a row
// budget an untabled execution fits in can trip on the entries.
func TestTableEntriesChargeRowBudget(t *testing.T) {
	_, verts := graphDoc(20)
	adj := randomGraph(rand.New(rand.NewSource(9)), len(verts), 40)
	charged := func(use Tabling, maxRows int64) (int64, map[xdm.NodeRef]int, error) {
		budget := xdm.NewBudget(time.Time{}, 0, maxRows)
		x := tabledSite(Delta, Config{Budget: budget})
		x.Table = use
		body := newTableBody(verts, adj, nil)
		var seed xdm.Family
		seed.AddNodes(0, verts[:1])
		res, err := Run(x, &seed, body)
		if err == nil {
			x.Release(res)
		}
		return budget.RowsCharged(), body.asked, err
	}
	plain, _, err := charged(Untabled, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	tabled, asked, err := charged(FreshTable, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	var entries int64
	for n := range asked {
		entries += int64(len(adj[n.Pre-verts[0].Pre]))
	}
	if entries == 0 || tabled != plain+entries {
		t.Fatalf("tabled execution charged %d rows, untabled %d, entries %d", tabled, plain, entries)
	}
	if _, _, err := charged(Untabled, tabled-1); err != nil {
		t.Fatalf("untabled under %d rows: %v", tabled-1, err)
	}
	if _, _, err := charged(FreshTable, tabled-1); xdm.CodeOf(err) != xdm.ErrRows {
		t.Fatalf("tabled under %d rows: %v, want %s", tabled-1, err, xdm.ErrRows)
	}
}

// TestModePick pins §3's decision rule, the one every engine and distcheck
// use: auto runs Delta exactly on a certified body, and a forced mode
// ignores the certificate.
func TestModePick(t *testing.T) {
	for _, c := range []struct {
		mode      Mode
		certified bool
		want      Algorithm
	}{
		{ModeAuto, false, Naive}, {ModeAuto, true, Delta},
		{ModeNaive, false, Naive}, {ModeNaive, true, Naive},
		{ModeDelta, false, Delta}, {ModeDelta, true, Delta},
	} {
		if got := c.mode.Pick(c.certified); got != c.want {
			t.Errorf("%v.Pick(%v) = %v, want %v", c.mode, c.certified, got, c.want)
		}
	}
}
