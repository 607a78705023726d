package graph

// layout is the CSR (compressed sparse row) form of a Graph that the
// shortest-path kernel walks: node u's outgoing edges occupy the
// contiguous positions off[u]..off[u+1]-1 of the column slices, in
// adjacency (= insertion) order. A position is therefore both an index
// into the columns and a bit index into an open-edge bitset, and
// ascending position within a node's range is exactly the order the
// adjacency list would have been scanned in.
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
	if g.lay.CompareAndSwap(nil, lay) {
		return lay
	}
	return g.layout()
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
