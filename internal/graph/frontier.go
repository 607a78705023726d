package graph

import (
	"math"
	"math/bits"
)

// frontierMax is the largest graph the frontier engine serves: its
// unsettled visited nodes fit one uint64 word.
const frontierMax = 64

// undoEntry is the label a relaxation overwrote: the node, its previous
// parent and dist, +Inf when the node was unvisited before the write.
type undoEntry struct {
	node, parent int32
	dist         float64
}

// popMark records one pop of a frontier search: the node, the undo log
// length before its relaxations, and the frontier before the pop.
type popMark struct {
	node, log int32
	front     uint64
}

// run is the engine choice. On a graph of at most 64 nodes it runs the
// frontier search and, when that meets a tie it cannot order, reruns
// the search on the heap; larger graphs go straight to the heap. It
// reports whether the frontier completed, which leaves an undo log a
// point search can resume from.
func (s *dijkstraScratch) run(g *Graph, m *Mask, src, dst NodeID, targets []NodeID, c *Cert) bool {
	lay := g.layout()
	if g.NumNodes() <= frontierMax {
		if s.frontier(lay, m, src, dst, targets, c) {
			s.completed++
			return true
		}
		s.fellBack++
		lay, m = s.heapView(lay, m)
	}
	s.search(lay, m, src, dst, targets, c)
	return false
}

// heapView returns the layout and mask the heap loop runs a search of
// lay under m on: lay and m themselves when lay is in adjacency order;
// for a cost-ordered lay its heap layout, with m's Open translated to
// that layout's positions in s. The heap is the tie reference: which of
// two equal labels it pops first depends on its push order, so it
// relaxes in adjacency order on every graph.
func (s *dijkstraScratch) heapView(lay *layout, m *Mask) (*layout, *Mask) {
	if lay.heap == nil {
		return lay, m
	}
	if m == nil || m.Open == nil {
		return lay.heap, m
	}
	if cap(s.open) < len(lay.all) {
		s.open = make([]uint64, len(lay.all))
	}
	s.open = s.open[:len(lay.all)]
	clear(s.open)
	for wi, w := range m.Open[:len(lay.all)] {
		for ; w != 0; w &= w - 1 {
			if p := wi<<6 | bits.TrailingZeros64(w); p < len(lay.eid) {
				q := lay.heap.pos[lay.eid[p]]
				s.open[q>>6] |= 1 << (uint(q) & 63)
			}
		}
	}
	s.mask = *m
	s.mask.Open = s.open
	return lay.heap, &s.mask
}

// frontier starts a search on a graph of at most 64 nodes and settles
// it (see settle). It fills dist with +Inf, so settle reads a label
// without the heap loop's epoch check; epoch stamps still mark the nodes
// a search visited, for the readers of its result.
func (s *dijkstraScratch) frontier(lay *layout, m *Mask, src, dst NodeID, targets []NodeID, c *Cert) bool {
	n := len(lay.off) - 1
	s.begin(n)
	s.aim(n, targets)
	if c != nil {
		clear(c.Rej)
	}
	inf := math.Inf(1)
	for i := range s.dist[:n] {
		s.dist[i] = inf
	}
	s.epoch[src] = s.cur
	s.dist[src] = 0
	s.parent[src] = Undefined
	if cap(s.undo) < len(lay.to) || cap(s.pops) < n {
		// A search, resumed or not, pops each node at most once and so
		// relaxes each edge at most once: the logs never grow past this.
		s.undo, s.pops = make([]undoEntry, 0, len(lay.to)), make([]popMark, 0, n)
	}
	s.undo, s.pops = s.undo[:0], s.pops[:0]
	return s.settle(lay, m, 1<<uint(src), dst, c)
}

// settle is search's loop with the heap replaced by front, the bitset
// of unsettled visited nodes. Every such node has one heap entry at its
// current dist, and the heap's other entries are stale: larger than
// their node's dist, so popping one does nothing. Costs are ≥ 0, so
// when one node of front holds the least dist, it is the heap's next
// effective pop, and by induction both loops pop the same nodes in the
// same order, relax the same edges, ask the same link tests and write
// the same dist and parent. When the least dist is
// shared the heap's choice depends on its layout, and settle returns
// false at once; the caller reruns the search on the heap.
//
// On a cost-ordered layout (csr.go) settle relaxes a node's edges in
// ascending cost, not adjacency order: the labels and parents are the
// same (costOrderSafe), and only which link tests the search asks of
// parallel edges can differ.
//
// A point search, certified or not, skips every relaxation with nd ≥
// dist[dst]: such a node could only be popped after dst or in a tie
// with it, which ends the search either way, and its edges cannot lower
// dst's label. The path and cost are the heap's; only labels no one
// reads differ. On a cost-ordered layout every later edge of the node
// costs at least as much, so the first such edge ends the node's scan.
// A certified search's certificate then records the pruned run, which
// is as exact as the whole run's (DESIGN §11.6).
//
// A search with targets stops, as search does, right after the pop that
// settles the last of the s.left targets not yet popped. A tie after
// that pop no longer sends it back to the heap: up to that pop it has
// matched the heap's run.
//
// Every label write is logged in s.undo and every pop in s.pops, by
// index within the capacity frontier gave them (append's growth call
// spilled the loop's registers, E47), and the search leaves in s.stop
// the frontier it stopped with and in s.stopped the node whose pop
// ended it, so a resumed search can rewind to any pop or go on from the
// end (PointRouter.ResumeInto).
func (s *dijkstraScratch) settle(lay *layout, m *Mask, front uint64, dst NodeID, c *Cert) bool {
	open := lay.all
	var avoid []uint64
	var resid []float64
	var want float64
	if m != nil {
		if m.Open != nil {
			open = m.Open
		}
		avoid, resid, want = m.Avoid, m.Resid, m.Want
	}
	needLink := avoid != nil || resid != nil || c != nil
	var rej []uint64 // c.Rej, hoisted: read through c, this loop ran 8–10 % slower
	if c != nil {
		rej = c.Rej
	}
	cur := s.cur
	dist, parent, epoch := s.dist, s.parent, s.epoch
	bound := math.Inf(1)
	if dst != Undefined {
		bound = dist[dst]
	}
	undo, pops := s.undo, s.pops
	s.stopped = Undefined
pop:
	for front != 0 {
		u, unique := least(front, dist)
		if !unique {
			s.undo, s.pops = undo, pops
			return false
		}
		du := dist[u]
		if NodeID(u) == dst {
			s.stopped = dst
			break // settled: done
		}
		if s.left > 0 && s.goal[u] == cur {
			if s.left--; s.left == 0 {
				break // the last target settled
			}
		}
		pops = pops[:len(pops)+1]
		pops[len(pops)-1] = popMark{node: int32(u), log: int32(len(undo)), front: front}
		front &^= 1 << uint(u)
		lo, hi := int(lay.off[u]), int(lay.off[u+1])
		if lo == hi {
			continue
		}
		first, last := lo>>6, (hi-1)>>6
		for wi := first; wi <= last; wi++ {
			w := open[wi]
			if wi == first {
				w &= ^uint64(0) << (uint(lo) & 63)
			}
			if wi == last {
				w &= ^uint64(0) >> (63 - uint(hi-1)&63)
			}
			for w != 0 {
				p := wi<<6 | bits.TrailingZeros64(w)
				w &= w - 1
				nd := du + lay.cost[p]
				if !(nd < bound) {
					if lay.heap != nil {
						continue pop // cost-ordered: so is every later edge
					}
					continue // past dst
				}
				to := lay.to[p]
				d := dist[to]
				if !(nd < d) {
					continue
				}
				if needLink {
					l := uint(lay.link[p])
					if rejects(avoid, resid, want, l) {
						if rej != nil {
							rej[l>>6] |= 1 << (l & 63)
						}
						continue
					}
				}
				undo = undo[:len(undo)+1]
				undo[len(undo)-1] = undoEntry{node: to, parent: int32(parent[to]), dist: d}
				epoch[to] = cur
				dist[to] = nd
				parent[to] = EdgeID(lay.eid[p])
				front |= 1 << uint(to)
				if NodeID(to) == dst {
					bound = nd
				}
			}
		}
	}
	s.undo, s.pops = undo, pops
	s.stop = front
	return true
}

// least returns the node of front with the least dist, and whether no
// other node of front holds the same dist. The labels of visited nodes
// are finite sums of costs ≥ 0 starting from +0, so never NaN or -0,
// and their bit patterns order as the floats do. It stays out of line:
// settle's relaxation loop is register-bound (DESIGN §11.6), and the
// scan inlined into it ran no faster.
//
//go:noinline
func least(front uint64, dist []float64) (u int, unique bool) {
	u = bits.TrailingZeros64(front)
	best, eq := math.Float64bits(dist[u]), 0
	for w := front & (front - 1); w != 0; w &= w - 1 {
		v := bits.TrailingZeros64(w)
		b := math.Float64bits(dist[v])
		if b == best {
			eq++
		}
		if b < best {
			best, u, eq = b, v, 0
		}
	}
	return u, eq == 0
}

// cut rewinds the logged search to just before its pop i: it undoes
// the label writes logged from that pop on, restoring the labels and
// stamps the search held then, and the frontier it popped from.
func (s *dijkstraScratch) cut(i int) {
	mark := s.pops[i]
	for k := len(s.undo) - 1; k >= int(mark.log); k-- {
		e := s.undo[k]
		s.dist[e.node], s.parent[e.node] = e.dist, EdgeID(e.parent)
		if math.IsInf(e.dist, 1) {
			s.epoch[e.node] = 0 // never the current epoch
		}
	}
	s.undo, s.pops = s.undo[:mark.log], s.pops[:i]
	s.stop, s.stopped = mark.front, Undefined
}

// labeledAt returns the index of the logged pop whose relaxations first
// labeled v, or -1 when the logged search never labeled v (or v is its
// source, labeled before any pop).
func (s *dijkstraScratch) labeledAt(v NodeID) int {
	if s.epoch[v] != s.cur {
		return -1
	}
	for k, e := range s.undo {
		if NodeID(e.node) != v {
			continue
		}
		// The pop that logged entry k: the last to start at or before it.
		i := len(s.pops) - 1
		for int(s.pops[i].log) > k {
			i--
		}
		return i
	}
	return -1
}
