package graph

import (
	"math"
	"math/bits"
)

// NewPointRouter returns a reusable point-to-point shortest-path
// engine bound to g. The engine reads g's current layout on every
// call, so edges added between calls are honored.
func NewPointRouter(g *Graph) *PointRouter { return &PointRouter{g: g} }

// PointRouter computes point-to-point shortest paths with early
// termination and zero steady-state allocation. Not concurrency-safe.
type PointRouter struct {
	g *Graph
	s dijkstraScratch

	// last identifies the search the frontier logs in s record — a
	// completed, uncertified frontier search for src→dst on layout lay —
	// or is zero when there is none to resume.
	last struct {
		lay      *layout
		src, dst NodeID
	}
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
	return pr.pathInto(buf, src, dst, m, nil)
}

// CertifiedPathInto is PathInto that also records the search's
// certificate into c, whose bitsets it overwrites: a later PathInto
// for the same src, dst and graph over any mask c Holds for returns
// this call's path and cost exactly. m.Open must be nil — a
// certificate speaks for link labels, not edge positions.
func (pr *PointRouter) CertifiedPathInto(buf []EdgeID, src, dst NodeID, m *Mask, c *Cert) ([]EdgeID, float64) {
	if m != nil && m.Open != nil {
		panic("graph: a certified search needs a mask with nil Open")
	}
	return pr.pathInto(buf, src, dst, m, c)
}

// ResumeInto is PathInto for a mask that admits the same edges as the
// mask of this router's last search except, at most, edges out of the
// nodes in changed (bit i = node i). When the last search was a
// completed frontier search for the same pair, it already popped the
// same nodes in the same order up to its first pop of a changed node:
// ResumeInto rewinds the search's log to that pop and continues from
// there under m, and when no changed node was popped it returns the
// last answer without searching. Otherwise — a graph of more than 64
// nodes, another pair, a certified or fallen-back search, an added
// edge — it runs PathInto. Either way it returns exactly PathInto's
// path and cost.
func (pr *PointRouter) ResumeInto(buf []EdgeID, src, dst NodeID, m *Mask, changed uint64) ([]EdgeID, float64) {
	s := &pr.s
	lay := pr.g.layout()
	if pr.last.lay != lay || pr.last.src != src || pr.last.dst != dst {
		return pr.pathInto(buf, src, dst, m, nil)
	}
	s.resumed++
	for i, p := range s.pops {
		if changed&(1<<uint(p.node)) == 0 {
			continue
		}
		s.rewind(int(p.log))
		s.pops = s.pops[:i]
		if !s.settle(lay, m, p.front, dst, nil) {
			s.fellBack++
			pr.last.lay = nil
			s.search(pr.g, m, src, dst, nil, nil)
		}
		break
	}
	return pr.appendPath(buf, src, dst)
}

func (pr *PointRouter) pathInto(buf []EdgeID, src, dst NodeID, m *Mask, c *Cert) ([]EdgeID, float64) {
	pr.last.lay = nil
	if src == dst {
		if c != nil {
			clear(c.Rel)
			clear(c.Rej)
		}
		return buf, 0
	}
	if pr.s.run(pr.g, m, src, dst, nil, c) && c == nil {
		pr.last.lay, pr.last.src, pr.last.dst = pr.g.layout(), src, dst
	}
	return pr.appendPath(buf, src, dst)
}

// appendPath appends the src→dst path the last search left in the
// scratch, returning the buffer unextended with +Inf cost when dst was
// not reached.
func (pr *PointRouter) appendPath(buf []EdgeID, src, dst NodeID) ([]EdgeID, float64) {
	s := &pr.s
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

// Cert is the certificate of one point search: the answers the mask
// gave it. The search asks the mask's link test only of edges that
// would relax (their tentative distance beats the target's at that
// moment); Rel holds every link it asked about and was admitted — each
// a relaxation that wrote state — and Rej every link it asked about
// and was refused.
//
// A masked search is a deterministic function of those answers: costs,
// adjacency order and the relaxation test do not depend on the mask.
// So a later search over the same graph and pair that admits every Rel
// link and rejects every Rej link asks the same questions, gets the
// same answers and writes the same dist, parent and heap state at
// every step (by induction over the examined edges). It returns the
// same path and cost, bit for bit, with no reasoning about ties, heap
// layout or float sums.
//
// Rel and Rej are caller-owned bitsets over link labels (SetLinks),
// each at least (max label + 64)/64 words.
type Cert struct {
	Rel, Rej []uint64
}

// Holds reports whether a point search over m would run exactly as
// the certified one did: m admits every Rel link and rejects every Rej
// link, by the kernel's own link test. A mask with a non-nil Open is
// never held, because a certificate says nothing about edge positions.
func (c *Cert) Holds(m *Mask) bool {
	var avoid []uint64
	var resid []float64
	var want float64
	if m != nil {
		if m.Open != nil {
			return false
		}
		avoid, resid, want = m.Avoid, m.Resid, m.Want
	}
	for wi, w := range c.Rej {
		for ; w != 0; w &= w - 1 {
			if !rejects(avoid, resid, want, uint(wi<<6|bits.TrailingZeros64(w))) {
				return false
			}
		}
	}
	for wi, w := range c.Rel {
		for ; w != 0; w &= w - 1 {
			if rejects(avoid, resid, want, uint(wi<<6|bits.TrailingZeros64(w))) {
				return false
			}
		}
	}
	return true
}
