package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refSearch is the closure-driven Dijkstra the mask kernel replaced,
// kept as the differential reference: it scans the adjacency list of
// every popped node, asks admit about each edge, and relaxes with the
// same heap. dst = Undefined settles the whole tree.
func refSearch(g *Graph, admit func(EdgeID) bool, src, dst NodeID) (dist []float64, parent []EdgeID) {
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
			if !admit(eid) {
				continue
			}
			e := &g.edges[eid]
			if nd := it.dist + e.Cost; nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = eid
				q.push(pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, parent
}

// kernelCase is one random instance: a multigraph with parallel edges
// and small integer costs (so exact cost ties abound), link labels
// shared by edge pairs, and a random mask.
type kernelCase struct {
	g     *Graph
	links []int32
	mask  *Mask
}

func hasBit(words []uint64, i int) bool {
	return i>>6 < len(words) && words[i>>6]&(1<<(uint(i)&63)) != 0
}

func newKernelCase(rng *rand.Rand, n, m int) kernelCase {
	g := New(n)
	for i := 0; i < m; i++ {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		cost := float64(1 + rng.Intn(3))
		if rng.Intn(3) == 0 {
			g.AddEdge(a, b, cost, 1)
		} else {
			g.AddBiEdge(a, b, cost, 1)
		}
		if rng.Intn(4) == 0 { // parallel twin at the same cost
			g.AddEdge(a, b, cost, 1)
		}
	}
	ne := g.NumEdges()
	nl := ne/2 + 1
	links := make([]int32, ne)
	for i := range links {
		links[i] = int32(rng.Intn(nl))
	}
	g.SetLinks(links)
	c := kernelCase{g: g, links: links}
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

// checkKernelCase compares both engines against the reference on one
// instance: whole trees from a few sources, point searches over a few
// pairs — distances, parents, path edges and costs.
func checkKernelCase(t *testing.T, rng *rand.Rand, c kernelCase) {
	t.Helper()
	g := c.g
	n := g.NumNodes()
	tr, pr := NewTreeRouter(g), NewPointRouter(g)
	for k := 0; k < 4; k++ {
		src := NodeID(rng.Intn(n))
		wantDist, wantParent := refSearch(g, c.admit, src, Undefined)
		tree := tr.Tree(src, c.mask)
		for i := 0; i < n; i++ {
			if tree.Dist[i] != wantDist[i] || tree.Parent[i] != wantParent[i] {
				t.Fatalf("tree from %d: node %d dist/parent %v/%d, reference %v/%d",
					src, i, tree.Dist[i], tree.Parent[i], wantDist[i], wantParent[i])
			}
		}

		dst := NodeID(rng.Intn(n))
		if dst == src {
			continue
		}
		wantDist, wantParent = refSearch(g, c.admit, src, dst)
		var wantPath []EdgeID
		if !math.IsInf(wantDist[dst], 1) {
			for v := dst; v != src; v = g.edges[wantParent[v]].From {
				wantPath = append([]EdgeID{wantParent[v]}, wantPath...)
			}
		}
		path, cost := pr.PathInto(nil, src, dst, c.mask)
		if cost != wantDist[dst] || len(path) != len(wantPath) {
			t.Fatalf("path %d->%d: cost %v over %d edges, reference %v over %d", src, dst, cost, len(path), wantDist[dst], len(wantPath))
		}
		for i := range path {
			if path[i] != wantPath[i] {
				t.Fatalf("path %d->%d: hop %d is edge %d, reference %d", src, dst, i, path[i], wantPath[i])
			}
		}
	}
}

// TestMaskKernelMatchesClosureReference is the differential test for
// the mask kernel: never-visited must equal visited-and-rejected, bit
// for bit, across random open / avoid / threshold sets.
func TestMaskKernelMatchesClosureReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkKernelCase(t, rng, newKernelCase(rng, 2+rng.Intn(40), rng.Intn(160)))
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

func FuzzMaskKernel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(20))
	f.Add(int64(7), uint8(2), uint16(200))  // two nodes, rows of 100+ positions
	f.Add(int64(42), uint8(64), uint16(64)) // sparse: most rows empty or one bit
	f.Add(int64(3), uint8(1), uint16(5))    // self-loops only
	f.Add(int64(9), uint8(30), uint16(0))   // no edges
	f.Fuzz(func(t *testing.T, seed int64, n uint8, m uint16) {
		rng := rand.New(rand.NewSource(seed))
		checkKernelCase(t, rng, newKernelCase(rng, 1+int(n), int(m)%600))
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
