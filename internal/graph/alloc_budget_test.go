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

// TestAllocBudgetSearch holds every kind of search to zero steady-state
// allocations at 27 and 64 nodes, which the frontier engine serves, and
// at 200, which only the heap does: point searches, trees, trees that
// stop at their targets, resumed searches, and point searches on a
// graph of equal costs, whose ties send every frontier search back to
// the heap.
func TestAllocBudgetSearch(t *testing.T) {
	for _, n := range []int{27, 64, 200} {
		g := benchGraph(n, 4*n)
		tied := New(n)
		for i := 0; i < n; i++ {
			tied.AddBiEdge(NodeID(i), NodeID((i+1)%n), 1, 1)
			tied.AddBiEdge(NodeID(i), NodeID((i+7)%n), 1, 1)
		}
		m := &Mask{Open: slices.Clone(g.layout().all)}
		lay := g.layout()
		pr, rr, fr, tr := NewPointRouter(g), NewPointRouter(g), NewPointRouter(tied), NewTreeRouter(g)
		var buf []EdgeID
		src, dst := NodeID(0), NodeID(n/2)
		targets := []NodeID{dst, NodeID(n / 3), dst, src}
		flip := func() uint64 { // toggles the edges out of node 1
			for p := lay.off[1]; p < lay.off[2]; p++ {
				m.Open[p>>6] ^= 1 << (uint(p) & 63)
			}
			return 1 << 1
		}
		for name, search := range map[string]func(){
			"point":    func() { buf, _ = pr.PathInto(buf[:0], src, dst, m) },
			"tree":     func() { tr.Tree(src, m) },
			"targets":  func() { tr.Tree(src, m, targets...) },
			"resume":   func() { buf, _ = rr.ResumeInto(buf[:0], src, dst, m, flip()) },
			"fallback": func() { buf, _ = fr.PathInto(buf[:0], src, dst, nil) },
		} {
			search()
			if allocs := testing.AllocsPerRun(100, search); allocs != 0 {
				t.Errorf("%d nodes, %s search: %v allocations, budget 0", n, name, allocs)
			}
		}
		if n <= frontierMax && (pr.s.completed == 0 || tr.s.completed == 0 || rr.s.resumed == 0 || fr.s.fellBack == 0) {
			t.Errorf("%d nodes: frontier completed %d point and %d tree searches, resumed %d, fell back %d; want each > 0",
				n, pr.s.completed, tr.s.completed, rr.s.resumed, fr.s.fellBack)
		}
	}
}
