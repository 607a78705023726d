package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refPath is the reference search's src→dst path and cost, nil at +Inf
// when dst is unreachable.
func refPath(g *Graph, admit func(EdgeID) bool, src, dst NodeID) ([]EdgeID, float64) {
	dist, parent, _, _ := refSearch(g, admit, src, dst)
	var path []EdgeID
	if !math.IsInf(dist[dst], 1) {
		for v := dst; v != src; v = g.edges[parent[v]].From {
			path = append(path, parent[v])
		}
		slices.Reverse(path)
	}
	return path, dist[dst]
}

// TestResumeMatchesFreshSearch flips random edges out of random node
// sets between searches for one pair — mostly closing them, as a path
// split saturating its links does, sometimes opening them — and checks
// that ResumeInto, told those nodes, returns exactly what a fresh
// PathInto and the reference return. The sets may name nodes whose
// edges did not change. Tie-free cases rewind and continue; tied ones
// fall back to the heap; pairs go unreachable, change, and have a
// certified search interleaved, each of which must force a fresh
// search; graphs past 64 nodes are always searched afresh.
func TestResumeMatchesFreshSearch(t *testing.T) {
	var ty tally
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		if seed%10 == 0 {
			n = 60 + rng.Intn(20)
		}
		c := newKernelCase(rng, n, rng.Intn(5*n))
		g := c.g
		if c.mask == nil {
			c.mask = &Mask{}
		}
		if c.mask.Open == nil {
			c.mask.Open = slices.Clone(g.layout().all)
		}
		lay := g.layout()
		cert := Cert{Rej: make([]uint64, (c.numLinks+63)/64)}
		pr, fresh := NewPointRouter(g), NewPointRouter(g)
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		pr.PathInto(nil, src, dst, c.mask)
		for round := 0; round < 12; round++ {
			switch rng.Intn(10) {
			case 0:
				src, dst = NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			case 1:
				pr.CertifiedPathInto(nil, src, dst, nil, &cert)
			}
			var changed uint64
			for k := rng.Intn(4); k > 0; k-- {
				u := rng.Intn(min(n, frontierMax))
				changed |= 1 << uint(u)
				for p := int(lay.off[u]); p < int(lay.off[u+1]); p++ {
					bit := uint64(1) << (uint(p) & 63)
					if c.mask.Open[p>>6]&bit != 0 && rng.Intn(2) == 0 || rng.Intn(8) == 0 {
						c.mask.Open[p>>6] ^= bit
					}
				}
			}
			got, gotCost := pr.ResumeInto(nil, src, dst, c.mask, changed)
			want, wantCost := fresh.PathInto(nil, src, dst, c.mask)
			ref, refCost := refPath(g, c.admit, src, dst)
			if gotCost != wantCost || !slices.Equal(got, want) || wantCost != refCost || !slices.Equal(want, ref) {
				t.Fatalf("seed %d round %d, %d->%d: resumed %v at %v, fresh %v at %v, reference %v at %v",
					seed, round, src, dst, got, gotCost, want, wantCost, ref, refCost)
			}
		}
		ty.count(&pr.s)
	}
	if ty.resumed < 1000 || ty.fellBack < 100 {
		t.Fatalf("%d searches resumed and %d fell back; want at least 1000 and 100", ty.resumed, ty.fellBack)
	}
}

// checkResumeRounds runs rounds of ResumeInto from one source on c. The
// destination changes about every other round; between rounds random
// edges out of random node sets close and open, and sometimes a
// certified search, which must force a fresh search, runs in between.
// Every answer must be exactly what a fresh PathInto and the reference
// return. It returns the resuming router's engine counts.
func checkResumeRounds(t *testing.T, rng *rand.Rand, c kernelCase, rounds int) (ty tally) {
	t.Helper()
	g := c.g
	n := g.NumNodes()
	if c.mask == nil {
		c.mask = &Mask{}
	}
	if c.mask.Open == nil {
		c.mask.Open = slices.Clone(g.layout().all)
	}
	lay := g.layout()
	cert := Cert{Rej: make([]uint64, (c.numLinks+63)/64)}
	pr, fresh := NewPointRouter(g), NewPointRouter(g)
	src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
	pr.PathInto(nil, src, dst, c.mask)
	for round := 0; round < rounds; round++ {
		if rng.Intn(2) == 0 {
			dst = NodeID(rng.Intn(n))
		}
		if rng.Intn(10) == 0 {
			pr.CertifiedPathInto(nil, src, NodeID(rng.Intn(n)), nil, &cert)
		}
		var changed uint64
		for k := rng.Intn(4); k > 0; k-- {
			u := rng.Intn(min(n, frontierMax))
			changed |= 1 << uint(u)
			for p := int(lay.off[u]); p < int(lay.off[u+1]); p++ {
				if rng.Intn(3) == 0 {
					c.mask.Open[p>>6] ^= 1 << (uint(p) & 63)
				}
			}
		}
		got, gotCost := pr.ResumeInto(nil, src, dst, c.mask, changed)
		want, wantCost := fresh.PathInto(nil, src, dst, c.mask)
		ref, refCost := refPath(g, c.admit, src, dst)
		if gotCost != wantCost || !slices.Equal(got, want) || wantCost != refCost || !slices.Equal(want, ref) {
			t.Fatalf("round %d, %d->%d: resumed %v at %v, fresh %v at %v, reference %v at %v",
				round, src, dst, got, gotCost, want, wantCost, ref, refCost)
		}
	}
	ty.count(&pr.s)
	return ty
}

// TestResumeAnyDestination resumes searches from one source to a
// destination that changes about every other round (checkResumeRounds),
// over all three cost regimes, on graphs the frontier serves and a few
// past 64 nodes. It asserts floors on the three ways a resumed search
// ends: answered off the log, continued after a cut back to the pop
// that first labeled the log's old target, and handed to the heap.
func TestResumeAnyDestination(t *testing.T) {
	var ty tally
	for seed := int64(1); seed <= 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		if seed%10 == 0 {
			n = 60 + rng.Intn(20)
		}
		ty.add(checkResumeRounds(t, rng, newKernelCase(rng, n, rng.Intn(5*n)), 24))
	}
	if ty.served < 800 || ty.retargeted < 350 || ty.fellBack < 1000 {
		t.Fatalf("%d resumed searches: %d answered off the log, %d cut back for a new target, %d fell back; want at least 800, 350 and 1000",
			ty.resumed, ty.served, ty.retargeted, ty.fellBack)
	}
}

// FuzzResume runs checkResumeRounds on a fuzzed instance.
func FuzzResume(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(20), uint8(16))
	f.Add(int64(11), uint8(11), uint16(40), uint8(32)) // all costs equal: resumed searches fall back
	f.Add(int64(5), uint8(63), uint16(300), uint8(16)) // 64 nodes: the largest frontier graph
	f.Add(int64(6), uint8(64), uint16(300), uint8(8))  // 65 nodes: never resumed
	f.Fuzz(func(t *testing.T, seed int64, n uint8, m uint16, rounds uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkResumeRounds(t, rng, newKernelCase(rng, 1+int(n), int(m)%600), int(rounds)%64)
	})
}

// TestCostOrderKeepsParallelTies pins costOrderSafe on two parallel
// edges 1→2 whose distinct costs, 2⁻⁵³ then 0, round to one label sum
// from node 1's label 1. Scanned in adjacency order the first edge
// labels node 2 and the second does not beat it; scanned in cost order
// the second would. The layout must stay in adjacency order and every
// engine must keep the reference's parent. Costs 0.5 and 0 order the
// layout, and the cheaper edge wins in either order.
func TestCostOrderKeepsParallelTies(t *testing.T) {
	for _, first := range []float64{0x1p-53, 0.5} {
		g := New(3)
		g.AddEdge(0, 1, 1, 1)
		g.AddEdge(1, 2, first, 1)
		g.AddEdge(1, 2, 0, 1)
		g.SetLinks([]int32{0, 1, 2})
		ordered := g.layout().heap != nil
		if ordered != (first == 0.5) {
			t.Fatalf("costs %v and 0 on parallel edges: layout cost-ordered %v, want %v", first, ordered, first == 0.5)
		}
		all := func(EdgeID) bool { return true }
		wantDist, wantParent, _, _ := refSearch(g, all, 0, Undefined)
		want, wantCost := refPath(g, all, 0, 2)
		tree := NewTreeRouter(g).Tree(0, nil)
		if tree.Parent[2] != wantParent[2] || tree.Dist[2] != wantDist[2] {
			t.Fatalf("costs %v and 0: tree parent of 2 is %d at %v, reference %d at %v", first, tree.Parent[2], tree.Dist[2], wantParent[2], wantDist[2])
		}
		cert := Cert{Rej: make([]uint64, 1)}
		certified, certCost, _ := NewPointRouter(g).CertifiedPathInto(nil, 0, 2, nil, &cert)
		path, cost := NewPointRouter(g).PathInto(nil, 0, 2, nil)
		if !slices.Equal(path, want) || cost != wantCost || !slices.Equal(certified, want) || certCost != wantCost {
			t.Fatalf("costs %v and 0: path %v at %v, certified %v at %v, reference %v at %v", first, path, cost, certified, certCost, want, wantCost)
		}
	}
}
