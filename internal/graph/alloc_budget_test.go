//go:build !race

package graph

import (
	"slices"
	"testing"
)

// TestAllocBudgetAppendPathTo mirrors BENCHMARK.json's per-layer
// graph.sssp_allocs for the path walk: into a grown buffer,
// AppendPathTo allocates nothing. (The race detector inflates counts,
// hence the build tag.)
func TestAllocBudgetAppendPathTo(t *testing.T) {
	const n = 64
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddBiEdge(NodeID(i), NodeID(i+1), 1, 1)
	}
	tree := NewTreeRouter(g).Tree(0, nil)
	buf := tree.AppendPathTo(nil, g, n-1)
	if want := tree.PathTo(g, n-1).Edges; len(buf) != n-1 || !slices.Equal(buf, want) {
		t.Fatalf("AppendPathTo = %v, PathTo = %v", buf, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for dst := NodeID(1); dst < n; dst++ {
			buf = tree.AppendPathTo(buf[:0], g, dst)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendPathTo into a grown buffer allocates %v objects, budget 0", allocs)
	}
}
