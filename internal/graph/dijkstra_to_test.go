package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointRouterMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 60)
		pr := NewPointRouter(g)
		tree := NewTreeRouter(g).Tree(0, nil)
		for dst := 1; dst < g.NumNodes(); dst++ {
			want := tree.PathTo(g, NodeID(dst))
			got := pr.Path(0, NodeID(dst), nil)
			if math.IsInf(want.Cost, 1) != math.IsInf(got.Cost, 1) {
				return false
			}
			if !math.IsInf(want.Cost, 1) && math.Abs(want.Cost-got.Cost) > 1e-9 {
				return false
			}
			if got.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPointRouterReusableAcrossCalls(t *testing.T) {
	g := diamond()
	pr := NewPointRouter(g)
	// Many interleaved queries with different sources must not leak
	// state (the epoch mechanism resets lazily).
	for i := 0; i < 100; i++ {
		if p := pr.Path(0, 3, nil); p.Cost != 2 {
			t.Fatalf("iteration %d: cost %v", i, p.Cost)
		}
		if p := pr.Path(2, 3, nil); p.Cost != 2 {
			t.Fatalf("iteration %d: reverse cost %v", i, p.Cost)
		}
		if p := pr.Path(3, 0, nil); !math.IsInf(p.Cost, 1) {
			t.Fatalf("iteration %d: unreachable returned %v", i, p.Cost)
		}
	}
}

func TestPointRouterSelf(t *testing.T) {
	g := diamond()
	pr := NewPointRouter(g)
	p := pr.Path(1, 1, nil)
	if p.Cost != 0 || len(p.Edges) != 0 {
		t.Fatalf("self path = %+v", p)
	}
}

func TestPointRouterHonorsEdgeMutations(t *testing.T) {
	g := diamond()
	pr := NewPointRouter(g)
	if p := pr.Path(0, 3, nil); p.Cost != 2 {
		t.Fatalf("cost = %v", p.Cost)
	}
	g.AddEdge(0, 3, 1.5, 1)
	if p := pr.Path(0, 3, nil); p.Cost != 1.5 || len(p.Edges) != 1 {
		t.Fatalf("after adding a shortcut: path %+v, want the new edge at cost 1.5", p)
	}
}

func TestPointRouterFilter(t *testing.T) {
	g := diamond()
	pr := NewPointRouter(g)
	p := pr.Path(0, 3, openExcept(g, 0))
	if p.Cost != 4 {
		t.Fatalf("masked cost = %v, want 4", p.Cost)
	}
}
