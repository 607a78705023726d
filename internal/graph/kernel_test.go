package graph

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refSearch is the closure-driven Dijkstra the mask kernel replaced,
// kept as the differential reference: it scans the adjacency list of
// every popped node, asks admit about each edge, and relaxes with the
// same heap. dst = Undefined settles the whole tree. It never prunes.
// wrote lists, in order, every edge whose relaxation wrote a label, and
// refused every edge admit turned away that would have written one: the
// links a certificate of this whole run would hold refused.
func refSearch(g *Graph, admit func(EdgeID) bool, src, dst NodeID) (dist []float64, parent, wrote, refused []EdgeID) {
	n := g.NumNodes()
	dist = make([]float64, n)
	parent = make([]EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = Undefined
	}
	dist[src] = 0
	q := pq{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, eid := range g.adj[it.node] {
			e := &g.edges[eid]
			nd := it.dist + e.Cost
			if !admit(eid) {
				if nd < dist[e.To] {
					refused = append(refused, eid)
				}
				continue
			}
			if nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = eid
				wrote = append(wrote, eid)
				q.push(pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, parent, wrote, refused
}

// kernelCase is one random instance: a multigraph with parallel edges,
// link labels shared by edge pairs, and a random mask. Its costs are
// one of three regimes: small integers, zero included, so exact ties
// and zero-cost hops abound; one cost for every edge, so ties are
// everywhere; or real-valued, where ties between distinct nodes are
// absent and the frontier search completes.
// The first two send many frontier searches back to the heap. Parallel
// twins cost what their edge costs, except in half the real-valued
// cases, where they cost the next float down: cheaper edges scanned
// later, whose sums round together with the first's, so the layout must
// stay in adjacency order (costOrderSafe).
type kernelCase struct {
	g        *Graph
	links    []int32
	numLinks int
	mask     *Mask
}

func hasBit(words []uint64, i int) bool {
	return i>>6 < len(words) && words[i>>6]&(1<<(uint(i)&63)) != 0
}

func newKernelCase(rng *rand.Rand, n, m int) kernelCase {
	g := New(n)
	regime := rng.Intn(4) // 0 all equal, 1 integer, else real-valued
	for i := 0; i < m; i++ {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		cost := float64(rng.Intn(3))
		switch regime {
		case 0:
			cost = 1
		case 2, 3:
			cost = 1 + 99*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			g.AddEdge(a, b, cost, 1)
		} else {
			g.AddBiEdge(a, b, cost, 1)
		}
		if rng.Intn(4) == 0 { // parallel twin
			twin := cost
			if regime == 3 {
				twin = math.Nextafter(cost, 0)
			}
			g.AddEdge(a, b, twin, 1)
		}
	}
	ne := g.NumEdges()
	nl := ne/2 + 1
	links := make([]int32, ne)
	for i := range links {
		links[i] = int32(rng.Intn(nl))
	}
	g.SetLinks(links)
	c := kernelCase{g: g, links: links, numLinks: nl}
	if rng.Intn(6) == 0 {
		return c // nil mask: every edge
	}
	c.mask = &Mask{}
	if rng.Intn(3) != 0 {
		c.mask.Open = make([]uint64, (ne+63)/64)
		for i := 0; i < ne; i++ {
			if rng.Intn(3) != 0 {
				p := uint(g.Pos(EdgeID(i)))
				c.mask.Open[p>>6] |= 1 << (p & 63)
			}
		}
	}
	if rng.Intn(2) == 0 {
		// Sometimes one word short: links past the end are not avoided.
		c.mask.Avoid = make([]uint64, (nl+63)/64-rng.Intn(2))
		for l := 0; l < len(c.mask.Avoid)*64 && l < nl; l++ {
			if rng.Intn(6) == 0 {
				c.mask.Avoid[l>>6] |= 1 << (uint(l) & 63)
			}
		}
	}
	if rng.Intn(2) == 0 {
		c.mask.Resid = make([]float64, nl)
		for l := range c.mask.Resid {
			c.mask.Resid[l] = float64(rng.Intn(4))
		}
		c.mask.Want = float64(rng.Intn(4))
	}
	return c
}

// admit is the mask's meaning spelled out edge by edge.
func (c kernelCase) admit(eid EdgeID) bool {
	m := c.mask
	if m == nil {
		return true
	}
	if m.Open != nil && !hasBit(m.Open, c.g.Pos(eid)) {
		return false
	}
	l := int(c.links[eid])
	if hasBit(m.Avoid, l) {
		return false
	}
	return m.Resid == nil || m.Resid[l] >= m.Want
}

// linkMask returns a copy of c's Avoid, Resid and Want, with a nil Open.
func (c kernelCase) linkMask() *Mask {
	m := &Mask{}
	if c.mask != nil {
		m.Avoid = append([]uint64(nil), c.mask.Avoid...)
		m.Resid = append([]float64(nil), c.mask.Resid...)
		m.Want = c.mask.Want
	}
	return m
}

// perturb returns a mask near c's — its Avoid and Resid copied with a
// few links flipped or re-drawn, sometimes a new Want — always with a
// nil Open, the masks a certificate can speak for. changed reports
// whether anything was flipped or re-drawn.
func perturb(rng *rand.Rand, c kernelCase) (m *Mask, changed bool) {
	m = c.linkMask()
	for k := rng.Intn(4); k > 0; k-- {
		l := rng.Intn(c.numLinks)
		if rng.Intn(2) == 0 {
			if m.Avoid == nil {
				m.Avoid = make([]uint64, (c.numLinks+63)/64)
			}
			if l>>6 < len(m.Avoid) {
				m.Avoid[l>>6] ^= 1 << (uint(l) & 63)
				changed = true
			}
		} else {
			if m.Resid == nil {
				m.Resid = make([]float64, c.numLinks)
			}
			m.Resid[l] = float64(rng.Intn(4))
			changed = true
		}
	}
	if rng.Intn(4) == 0 {
		m.Want = float64(rng.Intn(4))
		changed = true
	}
	return m, changed
}

// readmit returns c's link mask (linkMask) admitting every link of the
// bitset links. changed reports whether that admitted a link c's
// mask refused.
func readmit(c kernelCase, links []uint64) (m *Mask, changed bool) {
	m = c.linkMask()
	for wi, w := range links {
		for ; w != 0; w &= w - 1 {
			l := wi<<6 | bits.TrailingZeros64(w)
			if !rejects(m.Avoid, m.Resid, m.Want, uint(l)) {
				continue
			}
			if l>>6 < len(m.Avoid) {
				m.Avoid[l>>6] &^= 1 << (uint(l) & 63)
			}
			if m.Resid != nil && m.Resid[l] < m.Want {
				m.Resid[l] = m.Want
			}
			changed = true
		}
	}
	return m, changed
}

// settled copies the state a search left in s: dist and parent of
// every node stamped this epoch, +Inf / Undefined elsewhere.
func settled(s *dijkstraScratch, n int) ([]float64, []EdgeID) {
	dist, parent := make([]float64, n), make([]EdgeID, n)
	for i := range dist {
		dist[i], parent[i] = math.Inf(1), Undefined
		if s.epoch[i] == s.cur {
			dist[i], parent[i] = s.dist[i], s.parent[i]
		}
	}
	return dist, parent
}

// tally counts what a test exercised: certificates that held for
// changed masks, those of them that refuse a link the search relaxed
// (where a certificate of every link test the search asked would have
// failed), those that admit a link the unpruned reference refused
// (where the certificate of a whole run would have failed), certified
// searches that met a tie, frontier searches that completed, fell back
// to the heap, or were resumed, resumed searches
// answered off the log or cut back to their old target's first
// labeling, and trees that stopped at their targets short of the whole
// tree.
type tally struct {
	held, weak, pruned, tied, completed, fellBack, resumed, stopped int
	served, retargeted                                              int
}

func (ty *tally) add(o tally) {
	ty.held += o.held
	ty.weak += o.weak
	ty.pruned += o.pruned
	ty.tied += o.tied
	ty.completed += o.completed
	ty.fellBack += o.fellBack
	ty.resumed += o.resumed
	ty.stopped += o.stopped
	ty.served += o.served
	ty.retargeted += o.retargeted
}

func (ty *tally) count(s *dijkstraScratch) {
	ty.add(tally{completed: int(s.completed), fellBack: int(s.fellBack), resumed: int(s.resumed),
		served: int(s.served), retargeted: int(s.retargeted)})
}

// checkCert records a certified search for src→dst under c's mask and
// checks the certificate's contract. The certified search prunes
// exactly as an uncertified one: it leaves the same labels everywhere,
// and the same answer. Where the reference heap search, which never
// prunes, labels a node below dst, and at dst, both leave the
// reference's dist and parent. A search the frontier completed reports
// the tie sharesLabel sorts for, and the certificate holds for the mask
// it was recorded under. Unless the search met a tie, every mask it
// holds for, with the recorded path's links, yields exactly the
// recorded path and cost: random perturbations of c's mask, and c's
// mask re-admitting the links the reference refused and the search
// never asked about. It tallies the tied searches, the masks that
// changed something the certificate held for, those of them that
// refuse a link the search relaxed or admit one the reference refused,
// and both routers' engine counts.
func checkCert(t *testing.T, rng *rand.Rand, c kernelCase, src, dst NodeID) (ty tally) {
	t.Helper()
	g := c.g
	words := (c.numLinks + 63) / 64
	cert := Cert{Rej: make([]uint64, words)}
	for i := range cert.Rej {
		cert.Rej[i] = ^uint64(0) // the search must clear it
	}
	pc, pr := NewPointRouter(g), NewPointRouter(g)
	defer ty.count(&pc.s)
	defer ty.count(&pr.s)
	path, cost, tied := pc.CertifiedPathInto(nil, src, dst, c.mask, &cert)
	want, wantCost := pr.PathInto(nil, src, dst, c.mask)
	relaxed := make([]uint64, words) // the links of every relaxation that wrote a label
	refused := make([]uint64, words) // the links the reference refused
	if src != dst {
		n := g.NumNodes()
		cd, cp := settled(&pc.s, n)
		ud, up := settled(&pr.s, n)
		wd, wp, wrote, refusals := refSearch(g, c.admit, src, dst)
		for i := range cd {
			if cd[i] != ud[i] || cp[i] != up[i] {
				t.Fatalf("certified search %d->%d: node %d dist/parent %v/%d, uncertified %v/%d", src, dst, i, cd[i], cp[i], ud[i], up[i])
			}
			if (NodeID(i) == dst || wd[i] < wd[dst]) && (cd[i] != wd[i] || cp[i] != wp[i]) {
				t.Fatalf("certified search %d->%d: node %d dist/parent %v/%d, reference %v/%d", src, dst, i, cd[i], cp[i], wd[i], wp[i])
			}
		}
		for _, eid := range wrote {
			l := uint(c.links[eid])
			relaxed[l>>6] |= 1 << (l & 63)
		}
		for _, eid := range refusals {
			l := uint(c.links[eid])
			refused[l>>6] |= 1 << (l & 63)
		}
		if sorted := pc.s.sharesLabel(n, dst); pc.s.completed > 0 && tied != sorted {
			t.Fatalf("certified search %d->%d: the pop log reads tied %v, the sorted labels %v", src, dst, tied, sorted)
		}
	}
	if cost != wantCost || !slices.Equal(path, want) {
		t.Fatalf("certified search %d->%d: %v at %v, uncertified %v at %v", src, dst, path, cost, want, wantCost)
	}
	links := make([]int32, len(path))
	for k, eid := range path {
		links[k] = c.links[eid]
	}
	if !cert.Holds(c.mask, links) {
		t.Fatalf("certificate of %d->%d does not hold for the mask it was recorded under", src, dst)
	}
	if tied {
		ty.tied++
	}
	try := func(m *Mask, changed bool) {
		if tied || !cert.Holds(m, links) {
			return
		}
		if changed {
			ty.held++
			if refusesAny(m, relaxed) {
				ty.weak++
			}
			if admitsAny(m, refused) {
				ty.pruned++
			}
		}
		got, gotCost := pr.PathInto(nil, src, dst, m)
		if gotCost != cost || !slices.Equal(got, path) {
			t.Fatalf("certificate of %d->%d holds for %+v, but the search returns %v at %v, recorded %v at %v",
				src, dst, m, got, gotCost, path, cost)
		}
	}
	for k := 0; k < 8; k++ {
		try(perturb(rng, c))
	}
	// The links the reference refused and the pruned search never asked
	// about: admitted all at once, then one at a time.
	past := make([]uint64, words)
	for i := range past {
		past[i] = refused[i] &^ cert.Rej[i]
	}
	try(readmit(c, past))
	for wi, w := range past {
		for ; w != 0; w &= w - 1 {
			one := make([]uint64, words)
			one[wi] = w & -w
			try(readmit(c, one))
		}
	}
	return ty
}

// refusesAny reports whether m refuses some link of the bitset links.
func refusesAny(m *Mask, links []uint64) bool { return testsAny(m, links, true) }

// admitsAny reports whether m admits some link of the bitset links.
func admitsAny(m *Mask, links []uint64) bool { return testsAny(m, links, false) }

// testsAny reports whether m's link test answers refuse for some link
// of the bitset links.
func testsAny(m *Mask, links []uint64, refuse bool) bool {
	for wi, w := range links {
		for ; w != 0; w &= w - 1 {
			if rejects(m.Avoid, m.Resid, m.Want, uint(wi<<6|bits.TrailingZeros64(w))) == refuse {
				return true
			}
		}
	}
	return false
}

// randomTargets draws up to four targets for a tree from src, any node
// reachable or not, sometimes src itself and sometimes one twice.
func randomTargets(rng *rand.Rand, n int, src NodeID) []NodeID {
	var ts []NodeID
	for k := rng.Intn(5); k > 0; k-- {
		ts = append(ts, NodeID(rng.Intn(n)))
	}
	if rng.Intn(4) == 0 {
		ts = append(ts, src)
	}
	if len(ts) > 0 && rng.Intn(3) == 0 {
		ts = append(ts, ts[rng.Intn(len(ts))])
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// checkTargets grows trees from src that stop at random targets and
// checks each (checkTree). It counts the trees that stopped early.
func checkTargets(t *testing.T, rng *rand.Rand, c kernelCase, tr *TreeRouter, src NodeID, wantDist []float64, wantParent []EdgeID) (stopped int) {
	t.Helper()
	for k := 0; k < 3; k++ {
		if checkTree(t, c, tr, src, randomTargets(rng, c.g.NumNodes(), src), wantDist, wantParent) {
			stopped++
		}
	}
	return stopped
}

// checkTree grows the tree from src that stops at targets and compares
// it with the whole tree — wantDist, wantParent — at every target and
// every node on its path; a tree without targets must be the whole tree
// everywhere. It reports whether the tree's labels fell short of the
// whole tree's somewhere: whether it stopped early.
func checkTree(t *testing.T, c kernelCase, tr *TreeRouter, src NodeID, targets []NodeID, wantDist []float64, wantParent []EdgeID) (stopped bool) {
	t.Helper()
	g := c.g
	n := g.NumNodes()
	tree := tr.Tree(src, c.mask, targets...)
	if len(targets) == 0 {
		for i := 0; i < n; i++ {
			if tree.Dist[i] != wantDist[i] || tree.Parent[i] != wantParent[i] {
				t.Fatalf("tree from %d without targets: node %d dist/parent %v/%d, whole tree %v/%d",
					src, i, tree.Dist[i], tree.Parent[i], wantDist[i], wantParent[i])
			}
		}
		return false
	}
	for _, tg := range targets {
		if tree.Reachable(tg) == math.IsInf(wantDist[tg], 1) {
			t.Fatalf("tree from %d to %v: Reachable(%d) = %v, whole tree dist %v", src, targets, tg, tree.Reachable(tg), wantDist[tg])
		}
		v := tg
		for hop := 0; ; hop++ {
			if tree.Dist[v] != wantDist[v] || tree.Parent[v] != wantParent[v] || hop > n {
				t.Fatalf("tree from %d to %v: node %d on the path to %d has dist/parent %v/%d, whole tree %v/%d",
					src, targets, v, tg, tree.Dist[v], tree.Parent[v], wantDist[v], wantParent[v])
			}
			if tree.Parent[v] == Undefined {
				break
			}
			v = g.edges[tree.Parent[v]].From
		}
		if tree.Reachable(tg) && !slices.Equal(tree.PathTo(g, tg).Edges, wantPathTo(g, wantParent, src, tg)) {
			t.Fatalf("tree from %d to %v: PathTo(%d) differs from the whole tree's", src, targets, tg)
		}
	}
	dist, _ := settled(&tr.s, n)
	return !slices.Equal(dist, wantDist)
}

// wantPathTo walks parent from dst back to src.
func wantPathTo(g *Graph, parent []EdgeID, src, dst NodeID) []EdgeID {
	var rev []EdgeID
	for v := dst; v != src; v = g.edges[parent[v]].From {
		rev = append(rev, parent[v])
	}
	slices.Reverse(rev)
	return rev
}

// checkKernelCase compares both engines against the reference on one
// instance: whole trees from a few sources, trees stopped at random
// targets (checkTargets), point searches over a few
// pairs — distances, parents, path edges and costs — and, where the
// mask has no Open set, the certificate of each point search. It
// returns checkCert's tally plus its own routers' engine counts.
func checkKernelCase(t *testing.T, rng *rand.Rand, c kernelCase) (ty tally) {
	t.Helper()
	g := c.g
	n := g.NumNodes()
	tr, pr := NewTreeRouter(g), NewPointRouter(g)
	defer ty.count(&tr.s)
	defer ty.count(&pr.s)
	for k := 0; k < 4; k++ {
		src := NodeID(rng.Intn(n))
		wantDist, wantParent, _, _ := refSearch(g, c.admit, src, Undefined)
		tree := tr.Tree(src, c.mask)
		for i := 0; i < n; i++ {
			if tree.Dist[i] != wantDist[i] || tree.Parent[i] != wantParent[i] {
				t.Fatalf("tree from %d: node %d dist/parent %v/%d, reference %v/%d",
					src, i, tree.Dist[i], tree.Parent[i], wantDist[i], wantParent[i])
			}
		}
		ty.stopped += checkTargets(t, rng, c, tr, src, wantDist, wantParent)

		dst := NodeID(rng.Intn(n))
		if c.mask == nil || c.mask.Open == nil {
			ty.add(checkCert(t, rng, c, src, dst))
		}
		if dst == src {
			continue
		}
		wantPath, wantCost := refPath(g, c.admit, src, dst)
		if path, cost := pr.PathInto(nil, src, dst, c.mask); cost != wantCost || !slices.Equal(path, wantPath) {
			t.Fatalf("path %d->%d: %v at %v, reference %v at %v", src, dst, path, cost, wantPath, wantCost)
		}
	}
	return ty
}

// TestMaskKernelMatchesClosureReference is the differential test for
// the mask kernel: never-visited must equal visited-and-rejected, bit
// for bit, across random open / avoid / threshold sets, on graphs the
// frontier engine serves (up to 64 nodes) and on larger ones only the
// heap does. It also checks the certificates, that enough of them hold
// for changed masks for that check to mean something — enough of those
// refusing a link the search relaxed to show the check covers what a
// certificate of every link test would not, enough admitting a link
// the unpruned reference refused to show it covers what a whole run's
// certificate would not, and enough searches tying to cover the tie
// rule — that the frontier both completed and fell
// back often enough for the comparison to cover each, and that trees
// stopped at their targets short of the whole tree often enough on
// both engines.
func TestMaskKernelMatchesClosureReference(t *testing.T) {
	var ty tally
	var stoppedHeap int
	for seed := int64(1); seed <= 360; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(40), rng.Intn(160)
		if seed > 300 {
			n, m = 60+rng.Intn(40), rng.Intn(400)
		}
		o := checkKernelCase(t, rng, newKernelCase(rng, n, m))
		if n > frontierMax {
			stoppedHeap += o.stopped
		}
		ty.add(o)
	}
	if ty.held < 1000 || ty.weak < 100 || ty.pruned < 100 || ty.tied < 100 {
		t.Fatalf("certificates held for %d changed masks, %d of them refusing a link the search relaxed and %d admitting one the unpruned reference refused, and %d certified searches tied; want at least 1000, 100, 100 and 100",
			ty.held, ty.weak, ty.pruned, ty.tied)
	}
	if ty.completed < 1000 || ty.fellBack < 100 {
		t.Fatalf("frontier searches completed %d and fell back %d times; want at least 1000 and 100",
			ty.completed, ty.fellBack)
	}
	if ty.stopped-stoppedHeap < 800 || stoppedHeap < 150 {
		t.Fatalf("%d trees stopped at their targets on the frontier engine's graphs and %d on the heap's; want at least 800 and 150",
			ty.stopped-stoppedHeap, stoppedHeap)
	}
}

// TestCertNeedsLinkMasks pins the certificate's restriction to masks
// with a nil Open: Holds never covers a mask that selects edge
// positions, a certified search refuses one, and a src == dst search
// records the empty certificate, which holds for every other mask.
func TestCertNeedsLinkMasks(t *testing.T) {
	g := diamond()
	all := openExcept(g)
	cert := Cert{Rej: []uint64{^uint64(0)}}
	if path, cost, tied := NewPointRouter(g).CertifiedPathInto(nil, 2, 2, nil, &cert); len(path) != 0 || cost != 0 || tied || cert.Rej[0] != 0 {
		t.Fatalf("src == dst: path %v at %v, tied %v, certificate %+v, want empty at 0, untied, empty", path, cost, tied, cert)
	}
	if !cert.Holds(nil, nil) || !cert.Holds(&Mask{Avoid: []uint64{^uint64(0)}}, nil) {
		t.Fatal("the empty certificate does not hold for a link mask")
	}
	if cert.Holds(all, nil) {
		t.Fatal("a certificate holds for a mask with an Open set")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a certified search accepted a mask with an Open set")
		}
	}()
	NewPointRouter(g).CertifiedPathInto(nil, 0, 3, all, &cert)
}

// TestTiedCertificateHoldsForNothing pins the tie rule on the smallest
// all-equal-cost case. Node 0 reaches 1, 2 and 3 at cost 1, and 2 and
// 3 both reach 4. The heap pops 1, then 3, then 2 — an order its
// layout sets — so the search from 0 to 4 takes 0→3→4 and refuses
// nothing. Refuse link 0→1, which the search admitted and which is off
// that path: the certificate (no refused links) and the path's links
// still hold, but the heap now pops 2 before 3, and the search takes
// 0→2→4 at the same cost. The certified search must report its tie.
func TestTiedCertificateHoldsForNothing(t *testing.T) {
	g := New(5)
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {2, 4}, {3, 4}} {
		g.AddEdge(e[0], e[1], 1, 1)
	}
	g.SetLinks([]int32{0, 1, 2, 3, 4}) // link l is edge l
	cert := Cert{Rej: make([]uint64, 1)}
	path, cost, tied := NewPointRouter(g).CertifiedPathInto(nil, 0, 4, nil, &cert)
	links := []int32{int32(path[0]), int32(path[1])}
	refuse := &Mask{Avoid: []uint64{1 << 0}}
	got, gotCost := NewPointRouter(g).PathInto(nil, 0, 4, refuse)
	if !cert.Holds(refuse, links) || gotCost != cost || slices.Equal(got, path) {
		t.Fatalf("fixture: certified %v at %v, holds %v for a mask refusing 0→1, which yields %v at %v; want a different path at the same cost",
			path, cost, cert.Holds(refuse, links), got, gotCost)
	}
	if !tied {
		t.Fatalf("the search %v met a three-way tie at label 1 and did not report it", path)
	}
}

// TestCertifiedSearchReportsSharedLabels pins what a tie is, on both
// engines: two effective pops at one label, even when the two nodes
// never wait in the frontier together. On 0→1→2 a zero cost on 1→2
// settles 2 at 1's label, one pop after 1; at cost 1 nothing ties. The
// graph is padded with isolated nodes past 64 to run the heap.
func TestCertifiedSearchReportsSharedLabels(t *testing.T) {
	for _, n := range []int{3, frontierMax + 1} {
		for _, second := range []float64{0, 1} {
			g := New(n)
			g.AddEdge(0, 1, 1, 1)
			g.AddEdge(1, 2, second, 1)
			g.SetLinks([]int32{0, 1})
			cert := Cert{Rej: make([]uint64, 1)}
			pr := NewPointRouter(g)
			path, _, tied := pr.CertifiedPathInto(nil, 0, 2, nil, &cert)
			if len(path) != 2 || tied != (second == 0) || pr.s.fellBack != 0 {
				t.Fatalf("%d nodes, cost %v on 1→2: path %v, tied %v, fell back %d times; want 2 edges, tied %v, no fallback",
					n, second, path, tied, pr.s.fellBack, second == 0)
			}
		}
	}
}

// TestPopLogTie pins the tie a completed frontier search reads off its
// pop log, one fixture per way a label can repeat, and checks each
// against sharesLabel's sort. A zero-cost last hop ties dst with the
// last pop; a zero-cost first hop ties two consecutive pops, the first
// of them the source's; parallel edges of equal cost into dst tie
// nothing, because the second never relaxes, and the certificate still
// holds, with the same answer, when the twin off the path is refused.
func TestPopLogTie(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges [][3]float64 // from, to, cost
		tied  bool
	}{
		{"zero-cost last hop", [][3]float64{{0, 1, 1}, {1, 2, 0}}, true},
		{"consecutive equal pops", [][3]float64{{0, 1, 0}, {1, 2, 1}}, true},
		{"parallel equal-cost edges into dst", [][3]float64{{0, 1, 1}, {1, 2, 1}, {1, 2, 1}}, false},
	} {
		g := New(3)
		var links []int32
		for i, e := range tc.edges {
			g.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2], 1)
			links = append(links, int32(i))
		}
		g.SetLinks(links)
		cert := Cert{Rej: make([]uint64, 1)}
		pr := NewPointRouter(g)
		path, cost, tied := pr.CertifiedPathInto(nil, 0, 2, nil, &cert)
		if len(path) != 2 || tied != tc.tied || pr.s.completed != 1 || pr.s.sharesLabel(3, 2) != tc.tied {
			t.Fatalf("%s: path %v, tied %v, sorted labels tied %v, %d completed frontier searches; want 2 edges, tied %v, one completed search",
				tc.name, path, tied, pr.s.sharesLabel(3, 2), pr.s.completed, tc.tied)
		}
		if tc.tied {
			continue
		}
		twin := &Mask{Avoid: []uint64{1 << (3 - path[1])}} // edges 1 and 2 are the twins
		got, gotCost := NewPointRouter(g).PathInto(nil, 0, 2, twin)
		if !cert.Holds(twin, []int32{int32(path[0]), int32(path[1])}) || gotCost != cost || !slices.Equal(got, path) {
			t.Fatalf("%s: certified %v at %v; refusing the other twin, holds %v, and the search returns %v at %v",
				tc.name, path, cost, cert.Holds(twin, []int32{int32(path[0]), int32(path[1])}), got, gotCost)
		}
	}
}

// TestMaskKernelWideRows forces node position ranges that span several
// bitset words and start/end mid-word, the masking edge cases of the
// bit iteration.
func TestMaskKernelWideRows(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkKernelCase(t, rng, newKernelCase(rng, 2+rng.Intn(4), 100+rng.Intn(300)))
	}
}

// FuzzMaskKernel runs checkKernelCase on a fuzzed instance, then grows
// one more tree, from the node the first byte of tree names, stopped at
// the nodes the other bytes name (none: the whole tree), and checks it
// against the reference (checkTree).
func FuzzMaskKernel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(20), []byte{0, 3, 5})
	f.Add(int64(7), uint8(2), uint16(200), []byte{1, 0})         // two nodes, rows of 100+ positions
	f.Add(int64(42), uint8(64), uint16(64), []byte{9, 9, 9, 40}) // sparse: most rows empty or one bit
	f.Add(int64(5), uint8(63), uint16(300), []byte{2, 63, 17})   // 64 nodes: the largest frontier graph
	f.Add(int64(6), uint8(64), uint16(300), []byte{2, 64, 17})   // 65 nodes: the smallest heap-only one
	f.Add(int64(3), uint8(1), uint16(5), []byte{0, 0})           // self-loops only
	f.Add(int64(9), uint8(30), uint16(0), []byte{4})             // no edges
	f.Add(int64(11), uint8(11), uint16(40), []byte{0, 5})        // all costs equal: certified searches tie
	f.Add(int64(15), uint8(11), uint16(80), []byte{3, 7})        // twins a float cheaper: the layout keeps adjacency order
	f.Add(int64(170), uint8(11), uint16(40), []byte{1, 4})       // zero-cost last hops: dst ties the last pop
	f.Add(int64(114), uint8(8), uint16(30), []byte{2, 5})        // equal-cost twins into dst: pruned, untied
	f.Fuzz(func(t *testing.T, seed int64, n uint8, m uint16, tree []byte) {
		rng := rand.New(rand.NewSource(seed))
		c := newKernelCase(rng, 1+int(n), int(m)%600)
		checkKernelCase(t, rng, c)
		if len(tree) == 0 {
			return
		}
		nodes := c.g.NumNodes()
		src := NodeID(int(tree[0]) % nodes)
		var targets []NodeID
		for _, b := range tree[1:] {
			targets = append(targets, NodeID(int(b)%nodes))
		}
		wantDist, wantParent, _, _ := refSearch(c.g, c.admit, src, Undefined)
		checkTree(t, c, NewTreeRouter(c.g), src, targets, wantDist, wantParent)
	})
}

// TestEpochWrap drives both engines across the uint32 epoch wrap. Nodes
// 2 and 3 keep a zero stamp (never visited) until the wrap; an engine
// that let cur return to 0 would trust their zeroed dist as settled and
// report 3 unreachable.
func TestEpochWrap(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(2, 3, 1, 1)

	pr := NewPointRouter(g)
	if p := pr.Path(0, 1, nil); p.Cost != 1 {
		t.Fatalf("warm-up cost = %v", p.Cost)
	}
	pr.s.cur = math.MaxUint32 - 1
	if p := pr.Path(0, 1, nil); p.Cost != 1 || pr.s.cur != math.MaxUint32 {
		t.Fatalf("last epoch: cost %v, cur %d", p.Cost, pr.s.cur)
	}
	if p := pr.Path(0, 3, nil); p.Cost != 3 || len(p.Edges) != 3 {
		t.Fatalf("across the wrap: path %+v, want cost 3 over 3 edges", p)
	}
	if pr.s.cur != 1 {
		t.Fatalf("epoch restarted at %d, want 1", pr.s.cur)
	}
	if p := pr.Path(3, 0, nil); !math.IsInf(p.Cost, 1) {
		t.Fatalf("after the wrap: 3->0 cost %v, want unreachable", p.Cost)
	}

	tr := NewTreeRouter(g)
	tr.Tree(2, nil)
	tr.s.cur = math.MaxUint32
	tree := tr.Tree(0, nil)
	for i, want := range []float64{0, 1, 2, 3} {
		if tree.Dist[i] != want {
			t.Fatalf("tree across the wrap: dist[%d] = %v, want %v", i, tree.Dist[i], want)
		}
	}
}
