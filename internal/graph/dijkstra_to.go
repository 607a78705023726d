package graph

import (
	"math"
	"math/bits"
	"slices"
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
	// completed, uncertified frontier search from src on layout lay,
	// pruned for the target dst — or is zero when there is none to
	// resume.
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
	pr.last.lay = nil
	if src == dst {
		return buf, 0
	}
	if pr.s.run(pr.g, m, src, dst, nil, nil) {
		pr.last.lay, pr.last.src, pr.last.dst = pr.g.layout(), src, dst
	}
	return pr.appendPath(buf, src, dst)
}

// CertifiedPathInto is PathInto that also records the search's
// certificate into c, whose bitset it overwrites, and reports whether
// the search met a tie: two nodes it settled at one label (a frontier
// search handed back to the heap is one such case). When it met none,
// a later PathInto for the same src, dst and graph over any mask c
// Holds for, with this call's path, returns this call's path and cost
// exactly. A tied search's certificate proves nothing; the caller must
// not keep it. m.Open must be nil — a certificate speaks for link
// labels, not edge positions. The search prunes as PathInto's does.
func (pr *PointRouter) CertifiedPathInto(buf []EdgeID, src, dst NodeID, m *Mask, c *Cert) (edges []EdgeID, cost float64, tied bool) {
	if m != nil && m.Open != nil {
		panic("graph: a certified search needs a mask with nil Open")
	}
	if c.Rej == nil {
		panic("graph: a certificate needs its Rej bitset")
	}
	pr.last.lay = nil
	s, n := &pr.s, pr.g.NumNodes()
	if s.run(pr.g, m, src, dst, nil, c) {
		tied = s.popsTie(dst)
	} else {
		tied = n <= frontierMax || s.sharesLabel(n, dst) // a frontier fallback is a tie
	}
	edges, cost = pr.appendPath(buf, src, dst)
	return edges, cost, tied
}

// popsTie is sharesLabel for a search the frontier completed, read off
// its pop log instead of sorted. The log holds the nodes popped before
// dst, in label order, and dst was the unique least of the frontier
// when popped: so the visited labels up to dst's are the logged pops'
// and dst's own, and two are equal exactly when two consecutive pops
// share a label or dst shares the last pop's.
func (s *dijkstraScratch) popsTie(dst NodeID) bool {
	prev := math.Inf(-1)
	for _, p := range s.pops {
		if s.dist[p.node] == prev {
			return true
		}
		prev = s.dist[p.node]
	}
	return s.stopped == dst && s.dist[dst] == prev
}

// sharesLabel reports whether the certified heap search just run may
// have settled two nodes at one label. A search pops in label order, so
// one that stops at dst has popped every visited node labeled below it
// (every visited node, when dst was not reached): sorting those labels
// with the nodes labeled as dst and comparing neighbours finds them.
func (s *dijkstraScratch) sharesLabel(n int, dst NodeID) bool {
	bound := math.Inf(1)
	if s.epoch[dst] == s.cur {
		bound = s.dist[dst]
	}
	if cap(s.labels) < n {
		s.labels = make([]float64, 0, n)
	}
	labels := s.labels[:0]
	for v, e := range s.epoch[:n] {
		if e == s.cur && s.dist[v] <= bound {
			labels = append(labels, s.dist[v])
		}
	}
	slices.Sort(labels)
	for i := 1; i < len(labels); i++ {
		if labels[i] == labels[i-1] {
			return true
		}
	}
	return false
}

// ResumeInto is PathInto for a mask that admits the same edges as the
// mask of this router's last search except, at most, edges out of the
// nodes in changed (bit i = node i). When that search was a completed
// frontier search from the same src, whatever its dst, its logs are a
// search from src stopped at some pop, and up to its first pop of a
// changed node they are the same search under m: ResumeInto cuts them
// there. If dst was settled before the cut, the labels answer. If not,
// it goes on from the frontier the logs stopped with — first cutting
// back, when dst is not the logged search's target, to the pop that
// first labeled that target, before which nothing was pruned. Otherwise
// — a graph of more than 64 nodes, another src, a certified or
// fallen-back search, an added edge — it runs PathInto. Either way it
// returns exactly PathInto's path and cost (DESIGN §10.3).
func (pr *PointRouter) ResumeInto(buf []EdgeID, src, dst NodeID, m *Mask, changed uint64) ([]EdgeID, float64) {
	s := &pr.s
	lay := pr.g.layout()
	if pr.last.lay != lay || pr.last.src != src || src == dst {
		return pr.PathInto(buf, src, dst, m)
	}
	s.resumed++
	for i, p := range s.pops {
		if changed&(1<<uint(p.node)) != 0 {
			s.cut(i)
			break
		}
	}
	if s.stopped == dst || s.epoch[dst] == s.cur && s.stop&(1<<uint(dst)) == 0 {
		s.served++
		return pr.appendPath(buf, src, dst)
	}
	if dst != pr.last.dst {
		if i := s.labeledAt(pr.last.dst); i >= 0 {
			s.cut(i)
			s.retargeted++
		}
		pr.last.dst = dst
	}
	if !s.settle(lay, m, s.stop, dst, nil) {
		s.fellBack++
		pr.last.lay = nil
		hl, hm := s.heapView(lay, m)
		s.search(hl, hm, src, dst, nil, nil)
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

// Cert is the certificate of one point search's answer. The search
// asks the mask's link test only of edges that would relax (their
// tentative distance beats the target's at that moment); Rej holds
// every link it asked about and was refused. With the returned path,
// that is all the answer depends on.
//
// Let M be the recorded mask and M' a later one that rejects every Rej
// link and admits every link of the path P. Take M* equal to M on the
// links the search asked about and to M' on every other link. A masked
// search is a deterministic function of the answers it gets — costs,
// scan order and the relaxation test do not depend on the mask —
// so the recorded search runs unchanged under M* and returns P. M'
// admits a subset of what M* admits (it may refuse links M admitted)
// and still admits P, so P is still a cheapest path under M', and
// every node of P keeps its M* label. When no two of the recorded
// search's effective pops shared a label, no other candidate parent of
// a P-node can be settled before P's own: a search over M' relaxes P's
// edges first and returns P at the same cost, bit for bit (DESIGN
// §11.6). When two did, the heap's layout decides among equal labels,
// and M' may change it: such a certificate proves nothing.
//
// Rej is a caller-owned bitset over link labels (SetLinks), at least
// (max label + 64)/64 words.
type Cert struct {
	Rej []uint64
}

// Holds reports whether a point search over m would return the path
// whose link labels are path, as the untied search that recorded c
// did: m rejects every Rej link and admits every path link, by the
// kernel's own link test. A mask with a non-nil Open is never held,
// because a certificate says nothing about edge positions.
func (c *Cert) Holds(m *Mask, path []int32) bool {
	var avoid []uint64
	var resid []float64
	var want float64
	if m != nil {
		if m.Open != nil {
			return false
		}
		avoid, resid, want = m.Avoid, m.Resid, m.Want
	}
	for _, l := range path {
		if rejects(avoid, resid, want, uint(l)) {
			return false
		}
	}
	for wi, w := range c.Rej {
		for ; w != 0; w &= w - 1 {
			if !rejects(avoid, resid, want, uint(wi<<6|bits.TrailingZeros64(w))) {
				return false
			}
		}
	}
	return true
}
