package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic two-path diamond:
//
//	0 -> 1 -> 3 (cost 1+1, cap 5 each)
//	0 -> 2 -> 3 (cost 2+2, cap 3 each)
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1, 1, 5)
	g.AddEdge(1, 3, 1, 5)
	g.AddEdge(0, 2, 2, 3)
	g.AddEdge(2, 3, 2, 3)
	return g
}

// shortestPath is one point search on a fresh engine.
func shortestPath(g *Graph, src, dst NodeID, m *Mask) Path {
	return NewPointRouter(g).Path(src, dst, m)
}

// openExcept returns a Mask admitting every edge of g but the given.
func openExcept(g *Graph, closed ...EdgeID) *Mask {
	open := make([]uint64, (g.NumEdges()+63)/64)
	for id := 0; id < g.NumEdges(); id++ {
		pos := uint(g.Pos(EdgeID(id)))
		open[pos>>6] |= 1 << (pos & 63)
	}
	for _, id := range closed {
		pos := uint(g.Pos(id))
		open[pos>>6] &^= 1 << (pos & 63)
	}
	return &Mask{Open: open}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"from out of range", func() { g.AddEdge(5, 0, 1, 1) }},
		{"to out of range", func() { g.AddEdge(0, 5, 1, 1) }},
		{"negative from", func() { g.AddEdge(-1, 0, 1, 1) }},
		{"negative cost", func() { g.AddEdge(0, 1, -1, 1) }},
		{"NaN cost", func() { g.AddEdge(0, 1, math.NaN(), 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestNegativeCapacityMeansUnbounded(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 1, -1)
	if !math.IsInf(g.edges[id].Capacity, 1) {
		t.Fatalf("capacity = %v, want +Inf", g.edges[id].Capacity)
	}
}

func TestShortestPathDiamond(t *testing.T) {
	g := diamond()
	p := shortestPath(g, 0, 3, nil)
	if p.Cost != 2 {
		t.Fatalf("cost = %v, want 2", p.Cost)
	}
	nodes := p.Nodes(g)
	want := []NodeID{0, 1, 3}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestShortestPathRespectsFilter(t *testing.T) {
	g := diamond()
	p := shortestPath(g, 0, 3, openExcept(g, 1))
	if p.Cost != 4 {
		t.Fatalf("cost = %v, want 4", p.Cost)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1)
	p := shortestPath(g, 0, 2, nil)
	if !math.IsInf(p.Cost, 1) {
		t.Fatalf("cost = %v, want +Inf", p.Cost)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := New(1)
	p := shortestPath(g, 0, 0, nil)
	if p.Cost != 0 || len(p.Edges) != 0 {
		t.Fatalf("self path = %+v, want empty, zero cost", p)
	}
}

func TestPathValidateDetectsGap(t *testing.T) {
	g := diamond()
	bad := Path{Edges: []EdgeID{0, 3}} // 0->1 then 2->3
	if err := bad.Validate(g); err == nil {
		t.Fatal("expected discontinuity error")
	}
}

func TestMinCapacity(t *testing.T) {
	g := diamond()
	p := shortestPath(g, 0, 3, nil)
	if got := p.MinCapacity(g); got != 5 {
		t.Fatalf("MinCapacity = %v, want 5", got)
	}
	if got := (Path{}).MinCapacity(g); !math.IsInf(got, 1) {
		t.Fatalf("empty path MinCapacity = %v, want +Inf", got)
	}
}

func TestReachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1)
	tr := NewTreeRouter(g)
	if !tr.Tree(0, nil).Reachable(1) {
		t.Fatal("0->1 should be reachable")
	}
	if tr.Tree(1, nil).Reachable(0) {
		t.Fatal("1->0 should not be reachable (directed)")
	}
	if !tr.Tree(2, nil).Reachable(2) {
		t.Fatal("node reachable from itself")
	}
}

// grid builds an r x c grid with unit-cost, capacity-1 bidirectional
// edges; node (i,j) has ID i*c+j.
func grid(r, c int) *Graph {
	g := New(r * c)
	id := func(i, j int) NodeID { return NodeID(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddBiEdge(id(i, j), id(i, j+1), 1, 1)
			}
			if i+1 < r {
				g.AddBiEdge(id(i, j), id(i+1, j), 1, 1)
			}
		}
	}
	return g
}

func TestGridShortestPathLength(t *testing.T) {
	g := grid(4, 4)
	p := shortestPath(g, 0, 15, nil)
	if p.Cost != 6 { // 3 right + 3 down
		t.Fatalf("cost = %v, want 6", p.Cost)
	}
}

// --- property-based tests -------------------------------------------------

// randomGraph builds a random connected-ish digraph from a seed.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	// Spanning chain to keep things mostly reachable.
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1+rng.Float64()*9, 1+rng.Float64()*9)
	}
	for i := 0; i < m; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		g.AddEdge(a, b, 1+rng.Float64()*9, 1+rng.Float64()*9)
	}
	return g
}

// Property: Dijkstra distances satisfy the triangle inequality over
// every edge: dist[to] <= dist[from] + cost.
func TestQuickDijkstraTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 60)
		tree := NewTreeRouter(g).Tree(0, nil)
		for i := 0; i < g.NumEdges(); i++ {
			e := g.edges[i]
			if tree.Reachable(e.From) && tree.Dist[e.To] > tree.Dist[e.From]+e.Cost+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the path reconstructed from the Dijkstra tree has exactly
// the reported distance and is contiguous.
func TestQuickDijkstraPathCostMatchesDist(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 50)
		tree := NewTreeRouter(g).Tree(0, nil)
		for n := 1; n < g.NumNodes(); n++ {
			if !tree.Reachable(NodeID(n)) {
				continue
			}
			p := tree.PathTo(g, NodeID(n))
			if p.Validate(g) != nil {
				return false
			}
			sum := 0.0
			for _, eid := range p.Edges {
				sum += g.edges[eid].Cost
			}
			if math.Abs(sum-tree.Dist[n]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Validate checks that the path's edges are contiguous in g and
// returns an error describing the first inconsistency.
func (p Path) Validate(g *Graph) error {
	for i := 1; i < len(p.Edges); i++ {
		prev, cur := g.edges[p.Edges[i-1]], g.edges[p.Edges[i]]
		if prev.To != cur.From {
			return fmt.Errorf("graph: path discontinuous at hop %d: edge %d ends at %d, edge %d starts at %d",
				i, p.Edges[i-1], prev.To, p.Edges[i], cur.From)
		}
	}
	return nil
}
