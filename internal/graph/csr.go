package graph

import "math"

// layout is the CSR (compressed sparse row) form of a Graph that the
// shortest-path kernel walks: node u's outgoing edges occupy the
// contiguous positions off[u]..off[u+1]-1 of the column slices. A
// position is both an index into the columns and a bit index into an
// open-edge bitset. A node's positions run in adjacency (= insertion)
// order, except on a graph the frontier engine serves where
// costOrderSafe allows cost order: there they run in ascending cost,
// ties in adjacency order, and heap is the adjacency-ordered layout.
type layout struct {
	off  []int32 // len NumNodes+1
	to   []int32
	eid  []int32
	link []int32
	cost []float64
	pos  []int32 // EdgeID -> position

	// all is the position bitset with every edge set: the open set of
	// a nil Mask or a nil Mask.Open.
	all []uint64

	// heap, on a cost-ordered layout, is the graph's layout in adjacency
	// order, which the heap loop walks (heapView); nil on the others.
	heap *layout
}

// layout returns g's CSR form, building it on first use. Concurrent
// readers may race to build; the builds are identical and one wins.
func (g *Graph) layout() *layout {
	if lay := g.lay.Load(); lay != nil {
		return lay
	}
	m := len(g.edges)
	lay := &layout{
		off:  make([]int32, len(g.adj)+1),
		to:   make([]int32, m),
		eid:  make([]int32, m),
		link: make([]int32, m),
		cost: make([]float64, m),
		pos:  make([]int32, m),
		all:  make([]uint64, (m+63)/64),
	}
	for i := range lay.all {
		lay.all[i] = ^uint64(0) // search trims each word to the node's range
	}
	p := 0
	for u, out := range g.adj {
		lay.off[u] = int32(p)
		for _, id := range out {
			e := &g.edges[id]
			lay.to[p] = int32(e.To)
			lay.eid[p] = int32(id)
			lay.link[p] = int32(id)
			if g.links != nil {
				lay.link[p] = g.links[id]
			}
			lay.cost[p] = e.Cost
			lay.pos[id] = int32(p)
			p++
		}
	}
	lay.off[len(g.adj)] = int32(p)
	if len(g.adj) <= frontierMax {
		if byCost := lay.byCost(); byCost != nil {
			lay = byCost
		}
	}
	if g.lay.CompareAndSwap(nil, lay) {
		return lay
	}
	return g.layout()
}

// byCost returns adj, an adjacency-ordered layout, with each node's
// positions in ascending cost, ties in adjacency order, and adj as its
// heap layout; or nil when the order could move a label (costOrderSafe).
func (adj *layout) byCost() *layout {
	m := len(adj.to)
	lay := &layout{
		off:  adj.off,
		to:   make([]int32, m),
		eid:  make([]int32, m),
		link: make([]int32, m),
		cost: make([]float64, m),
		pos:  make([]int32, m),
		all:  adj.all,
		heap: adj,
	}
	if !adj.costOrderSafe(lay.pos) {
		return nil
	}
	for u := 0; u+1 < len(adj.off); u++ {
		lo, hi := int(adj.off[u]), int(adj.off[u+1])
		for p := lo; p < hi; p++ {
			q := p // insertion: equal costs keep adjacency order
			for ; q > lo && lay.cost[q-1] > adj.cost[p]; q-- {
				lay.to[q], lay.eid[q], lay.link[q], lay.cost[q] = lay.to[q-1], lay.eid[q-1], lay.link[q-1], lay.cost[q-1]
			}
			lay.to[q], lay.eid[q], lay.link[q], lay.cost[q] = adj.to[p], adj.eid[p], adj.link[p], adj.cost[p]
		}
	}
	for p, id := range lay.eid {
		lay.pos[id] = int32(p)
	}
	return lay
}

// costOrderSafe reports whether relaxing each node's edges in cost
// order leaves every label and parent the adjacency order of adj, a
// layout of at most 64 nodes, leaves. Only parallel edges can
// tell the orders apart: from one popped node u, two edges to v relax v
// to du+c1 and du+c2, and the one scanned first keeps v when the two
// sums are equal. Distinct costs whose sums round to one float differ
// by at most the spacing of floats at that sum. A sum is a label plus a
// cost: at most the sum of every edge cost, with the rounding of at
// most 64 additions, and 4× that sum bounds it. So when every two
// parallel edges of distinct cost differ by more than the spacing
// there, their sums differ and the cheaper edge wins in either order. A
// graph with an infinite cost sum fails the test. prev, one entry per
// position, is scratch.
func (adj *layout) costOrderSafe(prev []int32) bool {
	total := 0.0
	for _, c := range adj.cost {
		total += c
	}
	bound := 4 * total
	spacing := math.Nextafter(bound, math.Inf(1)) - bound
	// last[v] is the latest position to v: a parallel of the position in
	// hand when it lies in the same node's range. prev chains each
	// position to its node's earlier parallels.
	var last [frontierMax]int32
	for v := range last {
		last[v] = -1
	}
	for u := 0; u+1 < len(adj.off); u++ {
		lo, hi := adj.off[u], adj.off[u+1]
		for p := lo; p < hi; p++ {
			v := adj.to[p]
			prev[p] = -1
			if l := last[v]; l >= lo {
				prev[p] = l
			}
			last[v] = p
			for q := prev[p]; q >= 0; q = prev[q] {
				if d := math.Abs(adj.cost[p] - adj.cost[q]); d != 0 && !(d > spacing) {
					return false
				}
			}
		}
	}
	return true
}

// SetLinks labels every edge with a caller-defined link ID — typically
// the logical link both directions of a bidirectional edge belong to.
// Mask.Avoid and Mask.Resid are indexed by these labels. links must
// hold one entry per edge and is retained; unlabeled graphs use each
// edge's own ID.
func (g *Graph) SetLinks(links []int32) {
	if len(links) != len(g.edges) {
		panic("graph: SetLinks needs one label per edge")
	}
	g.links = links
	g.lay.Store(nil)
}

// Pos returns the edge's bit index in a Mask.Open bitset. Positions are
// dense in [0, NumEdges) and stable until an edge is added.
func (g *Graph) Pos(id EdgeID) int { return int(g.layout().pos[id]) }

// Mask selects the edges a shortest-path search may traverse. The
// kernel iterates the set bits of Open within the popped node's
// position range, so an edge outside Open is never visited at all;
// Avoid and Resid then reject individual visited edges. A nil *Mask
// admits every edge.
type Mask struct {
	// Open is a caller-owned bitset over edge positions (see Pos),
	// (NumEdges+63)/64 words. nil means every edge.
	Open []uint64
	// Avoid, when non-nil, is a bitset over link labels (SetLinks):
	// edges whose link has its bit set are rejected. Links beyond the
	// last word are not avoided.
	Avoid []uint64
	// Resid, when non-nil, rejects edges with Resid[link] < Want.
	Resid []float64
	Want  float64
}
