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
	dist, parent, _ := refSearch(g, admit, src, dst)
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
