package graph

import "math"

// NewPointRouter returns a reusable point-to-point shortest-path
// engine bound to g. The engine reads g's current layout on every
// call, so edges added between calls are honored.
func NewPointRouter(g *Graph) *PointRouter { return &PointRouter{g: g} }

// PointRouter computes point-to-point shortest paths with early
// termination and zero steady-state allocation. Not concurrency-safe.
type PointRouter struct {
	g *Graph
	s dijkstraScratch
}

// Path returns the cheapest src→dst path over the edges m admits, or
// a path with +Inf cost if none exists. The returned path's Edges
// slice is freshly allocated and owned by the caller.
func (pr *PointRouter) Path(src, dst NodeID, m *Mask) Path {
	edges, cost := pr.PathInto(nil, src, dst, m)
	return Path{Edges: edges, Cost: cost}
}

// PathInto is Path appending into a caller-provided buffer (typically
// scratch[:0] of a reused slice), so steady-state calls allocate
// nothing once the buffer has grown to the longest path seen. It
// returns the edge sequence and its cost; on an unreachable pair the
// buffer is returned unextended with +Inf cost, and src == dst yields
// an empty sequence at cost 0.
func (pr *PointRouter) PathInto(buf []EdgeID, src, dst NodeID, m *Mask) ([]EdgeID, float64) {
	if src == dst {
		return buf, 0
	}
	s := &pr.s
	s.search(pr.g, m, src, dst)
	if s.epoch[dst] != s.cur {
		return buf, math.Inf(1)
	}
	start := len(buf)
	for n := dst; n != src; {
		eid := s.parent[n]
		buf = append(buf, eid)
		n = pr.g.edges[eid].From
	}
	rev := buf[start:]
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return buf, s.dist[dst]
}
