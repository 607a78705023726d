package graph

import (
	"math"
	"math/bits"
)

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap on dist. push/pop inline the exact sift
// order of container/heap (same comparisons, same swaps), so the pop
// sequence — including ties — is identical to the heap.Interface
// implementation this replaces, without boxing an interface value per
// operation.
type pq []pqItem

func (q *pq) push(it pqItem) {
	s := append(*q, it)
	*q = s
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	s := *q
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*q = s[:n]
	return it
}

// ShortestTree holds the result of a single-source shortest-path run:
// per-node distance and the incoming edge on the shortest path.
type ShortestTree struct {
	Source NodeID
	Dist   []float64
	Parent []EdgeID // incoming edge on shortest path, Undefined at source/unreachable
}

// Reachable reports whether n has a finite distance from the source.
func (t *ShortestTree) Reachable(n NodeID) bool {
	return !math.IsInf(t.Dist[n], 1)
}

// PathTo reconstructs the shortest path from the tree's source to dst.
// It returns a zero-length path with infinite cost when dst is
// unreachable, and an empty path with zero cost when dst == source.
func (t *ShortestTree) PathTo(g *Graph, dst NodeID) Path {
	if !t.Reachable(dst) {
		return Path{Cost: math.Inf(1)}
	}
	return Path{Edges: t.AppendPathTo(nil, g, dst), Cost: t.Dist[dst]}
}

// AppendPathTo appends the edge sequence of the path to dst, which the
// caller has checked is Reachable, to a caller-provided buffer (the tree
// twin of PointRouter.PathInto): into a grown buffer the walk allocates
// nothing. dst == source appends nothing.
func (t *ShortestTree) AppendPathTo(buf []EdgeID, g *Graph, dst NodeID) []EdgeID {
	start := len(buf)
	for n := dst; n != t.Source; {
		eid := t.Parent[n]
		buf = append(buf, eid)
		n = g.edges[eid].From
	}
	rev := buf[start:]
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return buf
}

// dijkstraScratch is the reusable state of one shortest-path engine:
// dist/parent are valid for a node only while its epoch stamp equals
// cur, so starting a search is O(1) instead of an O(nodes) refill. It
// is not safe for concurrent use.
type dijkstraScratch struct {
	dist   []float64
	parent []EdgeID
	epoch  []uint32
	cur    uint32
	q      pq

	// The frontier engine's logs (frontier.go): label writes, pops, the
	// frontier the search stopped with and the node whose pop stopped
	// it (Undefined when none did). The counts: searches the frontier
	// completed and fell back to the heap, resumed searches, and of
	// those, answers read off the log without searching and searches
	// cut back to the pop that first labeled the log's old target.
	undo                                             []undoEntry
	pops                                             []popMark
	stop                                             uint64
	stopped                                          NodeID
	completed, fellBack, resumed, served, retargeted uint64

	// goal[i] == cur marks node i as a target of the search in flight
	// and left counts those not yet popped (aim); goal is built by the
	// first search that has targets. left lives here, not in a local:
	// a register held across the search loops slows every search.
	goal []uint32
	left int

	labels []float64 // sharesLabel's scratch

	// heapView's scratch: a mask, its Open in heap positions.
	mask Mask
	open []uint64
}

// begin sizes the scratch for n nodes and opens a new epoch. On the
// uint32 wrap (2³² searches on one long-lived engine) the stamps are
// cleared and the epoch restarts at 1, so a stamp left by a search
// 2³² runs ago can never be mistaken for the current one.
func (s *dijkstraScratch) begin(n int) {
	if len(s.epoch) < n {
		s.dist = make([]float64, n)
		s.parent = make([]EdgeID, n)
		s.epoch = make([]uint32, n)
		s.goal = nil
		s.cur = 0
	}
	s.cur++
	if s.cur == 0 {
		clear(s.epoch)
		clear(s.goal)
		s.cur = 1
	}
}

// aim marks the targets of the search begin just opened and sets left
// to how many distinct ones there are: the search stops at the pop that
// settles the last of them. No targets sets 0, which stops nothing.
func (s *dijkstraScratch) aim(n int, targets []NodeID) {
	s.left = 0
	if len(targets) == 0 {
		return
	}
	if len(s.goal) < n {
		s.goal = make([]uint32, n)
	}
	for _, t := range targets {
		if s.goal[t] != s.cur {
			s.goal[t] = s.cur
			s.left++
		}
	}
}

// rejects is the mask's link test, the one definition the kernel and
// Cert.Holds share: an edge labeled l is turned away when its Avoid
// bit is set (links past the last word are not avoided) or its
// residual is below want.
func rejects(avoid []uint64, resid []float64, want float64, l uint) bool {
	if wl := l >> 6; wl < uint(len(avoid)) && avoid[wl]&(1<<(l&63)) != 0 {
		return true
	}
	return resid != nil && resid[l] < want
}

// search is the heap-ordered Dijkstra loop behind both engines: every
// search on a graph of more than 64 nodes, and every one the frontier
// loop (settle, frontier.go) hands back on a tie, on the adjacency-
// ordered layout heapView gives it. It settles
// nodes from src until dst is popped, or until the pop that settles the
// last of targets (dst = Undefined and no targets settle everything
// reachable), relaxing only the edges m admits: per popped
// node it walks the set bits of the open bitset inside the node's CSR
// position range in ascending order — the adjacency order — and asks
// the Avoid / Resid link test only of the edges that would relax
// (nd < d), just before the write. An edge outside the open set is
// never loaded, and an edge that would not relax is never tested; both
// are observationally identical to testing and rejecting it, because a
// rejected edge writes nothing and pushes nothing. A node whose epoch
// stamp is stale counts as dist +Inf.
//
// A non-nil c records the search's certificate (see Cert), overwriting
// it: every link the search asks about and refuses goes into Rej. A
// nil c records nothing.
func (s *dijkstraScratch) search(lay *layout, m *Mask, src, dst NodeID, targets []NodeID, c *Cert) {
	s.begin(len(lay.off) - 1)
	s.aim(len(lay.off)-1, targets)
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
	if c != nil {
		clear(c.Rej)
	}
	needLink := avoid != nil || resid != nil || c != nil
	inf := math.Inf(1)
	cur := s.cur
	dist, parent, epoch := s.dist, s.parent, s.epoch
	epoch[src] = cur
	dist[src] = 0
	parent[src] = Undefined
	s.q = append(s.q[:0], pqItem{node: src})
	for len(s.q) > 0 {
		it := s.q.pop()
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		if it.node == dst {
			break // settled: done
		}
		if s.left > 0 && s.goal[it.node] == cur {
			// A node's one effective pop: pushes strictly lower its dist.
			if s.left--; s.left == 0 {
				break // the last target settled
			}
		}
		lo, hi := int(lay.off[it.node]), int(lay.off[it.node+1])
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
				nd := it.dist + lay.cost[p]
				to := lay.to[p]
				d := dist[to]
				if epoch[to] != cur {
					d = inf // unvisited this run
				}
				if !(nd < d) {
					continue
				}
				if needLink {
					l := uint(lay.link[p])
					if rejects(avoid, resid, want, l) {
						if c != nil {
							c.Rej[l>>6] |= 1 << (l & 63)
						}
						continue
					}
				}
				epoch[to] = cur
				dist[to] = nd
				parent[to] = EdgeID(lay.eid[p])
				s.q.push(pqItem{node: NodeID(to), dist: nd})
			}
		}
	}
}

// TreeRouter computes single-source shortest-path trees with reusable
// scratch (dist/parent/heap), avoiding per-call allocation across
// repeated runs on the same graph. Not safe for concurrent use; use
// one TreeRouter per goroutine.
type TreeRouter struct {
	g *Graph
	s dijkstraScratch
	t ShortestTree
}

// NewTreeRouter returns a reusable single-source engine bound to g.
func NewTreeRouter(g *Graph) *TreeRouter { return &TreeRouter{g: g} }

// Tree computes the shortest-path tree from src over the edges m
// admits (nil = every edge). The returned tree shares the router's
// scratch buffers: it is valid only until the next Tree call and must
// not be retained.
//
// With targets, the search stops right after the pop that settles the
// last distinct one: the whole tree's search cut short, so Dist, Parent
// and Reachable are the whole tree's at every target and every node on
// a target's path (each settled before the target was), and PathTo and
// AppendPathTo to a target are too. Every other node's labels are
// unspecified. Without targets every label is the whole tree's.
func (tr *TreeRouter) Tree(src NodeID, m *Mask, targets ...NodeID) *ShortestTree {
	s := &tr.s
	s.run(tr.g, m, src, Undefined, targets, nil)
	n := tr.g.NumNodes()
	if len(targets) > 0 {
		for _, t := range targets {
			if s.epoch[t] != s.cur {
				s.dist[t], s.parent[t] = math.Inf(1), Undefined
			}
		}
	} else {
		for i, e := range s.epoch[:n] {
			if e != s.cur {
				s.dist[i] = math.Inf(1)
				s.parent[i] = Undefined
			}
		}
	}
	tr.t = ShortestTree{Source: src, Dist: s.dist[:n], Parent: s.parent[:n]}
	return &tr.t
}
