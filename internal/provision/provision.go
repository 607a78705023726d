// Package provision implements the POC's feasibility machinery: given
// a candidate set of offered links, can the backbone carry the traffic
// matrix — and can it keep doing so under the failure models the paper
// uses as auction constraints (§3.3)?
//
//	Constraint #1: the link set handles the offered load.
//	Constraint #2: it still does when any single (primary) path
//	               between a pair of routers has failed.
//	Constraint #3: it still does when a path between each pair of
//	               routers has failed (every demand must avoid its own
//	               primary path simultaneously).
//
// Routing is flow-level: each demand is split across up to MaxPaths
// shortest paths subject to remaining capacity. This mirrors how a
// transit fabric with MPLS-TE or similar splits aggregates, and keeps
// feasibility checks fast enough for the auction's winner
// determination, which runs them thousands of times.
//
// Link subsets are linkset.Set bitsets (nil = all links). A demand pair
// is an index: a matrix's positive cells in row-major order, computed
// once per matrix with the orders routing visits them in (shape). A
// Routing holds one assignment list per pair index and per-link
// usage, and there is one of it: the Shaver repairs the
// Routing that route returned, in place, under one undo log. Paths and
// lists live on slabs the Routing owns, residuals and the open-edge
// masks in reusable Workspace arenas, so a steady-state check rebuilds
// no graph and allocates nothing per path — see DESIGN.md §10.
package provision

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Constraint selects the resilience model for feasibility checks.
type Constraint int

const (
	// Constraint1 only requires the link set to carry the load.
	Constraint1 Constraint = iota + 1
	// Constraint2 additionally requires the load to be carried when
	// any single router-pair primary path has failed (checked one
	// scenario at a time over the heaviest pairs; see Options).
	Constraint2
	// Constraint3 requires every demand to be routable while avoiding
	// its own primary path — all pairs degraded simultaneously.
	Constraint3
)

func (c Constraint) String() string {
	switch c {
	case Constraint1:
		return "constraint#1(load)"
	case Constraint2:
		return "constraint#2(single-path-failure)"
	case Constraint3:
		return "constraint#3(per-pair-path-failure)"
	default:
		return fmt.Sprintf("constraint(%d)", int(c))
	}
}

// Options tunes the router.
type Options struct {
	// MaxPaths bounds how many alternative paths a single demand may
	// be split across. Default 12.
	MaxPaths int
	// FailureScenarios bounds how many router-pair primary-path
	// failure scenarios Constraint2 checks, taking the pairs with the
	// largest demand first. Default 32; a negative value means all
	// pairs, which is exact but slow on large instances.
	FailureScenarios int
	// LinkCost overrides the routing metric for a logical link. When
	// nil, the link's physical distance is used. The auction sets
	// this to the lease price so that routing — and therefore the
	// seed of the winner determination — prefers cheap links. The
	// auction's counterfactual winner determinations call it from
	// several goroutines at once, so it must be safe for concurrent
	// use (pure functions over immutable data are).
	LinkCost func(l topo.LogicalLink) float64
	// Obs, when non-nil, receives per-check metrics (verdict counts
	// per constraint, base-routing headroom and path-count
	// histograms). Recording uses only commutative registry
	// operations, so checks running in parallel counterfactuals stay
	// deterministic. The FeasibilityCache strips Obs before computing
	// and records once per distinct memo entry instead, keeping the
	// exported counts independent of cache hit/miss scheduling. Obs
	// never enters cache keys.
	Obs *obs.Registry
	// Workspace, when non-nil, supplies the reusable routing arenas
	// and demand caches for this call (and nested scenario routings).
	// It must have been built for the same network and the same
	// LinkCost metric. When nil — or bound to a different network — a
	// transient workspace is created per call. Like Obs, Workspace
	// never enters cache keys and never changes results, only speed.
	Workspace *Workspace
}

func (o Options) withDefaults() Options {
	if o.MaxPaths <= 0 {
		o.MaxPaths = 12
	}
	if o.FailureScenarios == 0 {
		o.FailureScenarios = 32
	}
	if o.FailureScenarios < 0 {
		o.FailureScenarios = 1 << 30 // "all"
	}
	return o
}

// PathAssignment records one path carrying part of a demand.
type PathAssignment struct {
	Links []int // logical link IDs in order
	Gbps  float64
}

// Routing is the result of placing a traffic matrix onto a link set.
// Assignments are held per demand pair, indexed in the matrix's
// row-major pair order.
//
// Ownership: a Routing that Route or Check returned is the caller's for
// good — nothing a later call writes aliases it. One that never leaves
// the package goes back to its Workspace (giveRouting) to be reused.
type Routing struct {
	// Unplaced is the total demand in Gbps that could not be routed;
	// zero means the matrix fits.
	Unplaced float64
	// Ejected is the demand placed by the phase-3 ejection repair
	// (diagnostic: high values mean the greedy packing wedged).
	Ejected float64
	// UnplacedPairs lists the (src,dst) pairs with unplaced demand.
	UnplacedPairs [][2]int

	// moves is the number of ejection-repair reroutes this routing
	// consumed out of the per-Route 512-move budget. The check layer
	// folds it into CacheSummary.Moves (max over the check's routings),
	// which regional decomposition uses to prove the shared budget
	// never binds differently between the global and per-region runs.
	moves int

	// lists[i] carries shape.pairs[i]; a pair under the 1e-9 placement
	// tolerance has an empty list. The Shaver repairs lists in place.
	shape *shape
	lists [][]PathAssignment
	// usage[l] is the Gbps link l carried (both directions summed) when
	// route returned the routing: positive exactly on the links crossed.
	usage []float64

	// links stores every path's link IDs and asgs every pair's list
	// (keep, push): both are sized by the demand, not by the network.
	links slab[int]
	asgs  slab[PathAssignment]
}

// slab hands out cap-limited windows of chunks that never move, so
// earlier windows stay valid while it grows. Assigning an earlier
// slabPos back frees what was allocated since.
type slab[T any] struct {
	chunks [][]T
	slabPos
}

// slabPos says chunks[cur][:used] is handed out, the chunks after it free.
type slabPos struct{ cur, used int }

// alloc returns a window of n elements with stale contents, opening a
// chunk of at least size elements when no free one can hold it.
func (s *slab[T]) alloc(n, size int) []T {
	for ; s.cur < len(s.chunks); s.slabPos = (slabPos{s.cur + 1, 0}) {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			s.used += n
			return c[s.used-n : s.used : s.used]
		}
	}
	s.chunks, s.used = append(s.chunks, make([]T, max(n, size))), n
	return s.chunks[s.cur][:n:n]
}

// reset empties the routing to carry sh, keeping its storage.
func (r *Routing) reset(sh *shape) {
	r.Unplaced, r.Ejected, r.UnplacedPairs, r.moves, r.shape = 0, 0, r.UnplacedPairs[:0], 0, sh
	r.lists = append(r.lists[:0], make([][]PathAssignment, len(sh.pairs))...)
	r.links.slabPos, r.asgs.slabPos = slabPos{}, slabPos{}
}

// keep copies a path out of arena scratch onto the slab, as link IDs.
func (r *Routing) keep(rt *router, edges []graph.EdgeID) []int {
	links := r.links.alloc(len(edges), 8*len(r.lists)+64)
	for i, eid := range edges {
		links[i] = int(rt.linkFor[eid])
	}
	return links
}

// push appends a to pair i's list. A full list moves to a window twice
// its size on the routing's slab; the first holds two, so the common
// one- and two-path pairs never move.
func (r *Routing) push(i int, a PathAssignment) {
	l := r.lists[i]
	if len(l) == cap(l) {
		l = append(r.asgs.alloc(max(2, 2*len(l)), 2*len(r.lists)+8)[:0], l...)
	}
	r.lists[i] = append(l, a)
}

// Feasible reports whether the routing placed all demand.
func (r *Routing) Feasible() bool { return r.Unplaced <= 1e-9 }

// Visit calls fn for every routed pair — one with at least one
// assignment — in (src,dst) order.
func (r *Routing) Visit(fn func(src, dst int, asgs []PathAssignment)) {
	for i, asgs := range r.lists {
		if len(asgs) > 0 {
			fn(r.shape.pairs[i].src, r.shape.pairs[i].dst, asgs)
		}
	}
}

// VisitUsed calls fn for every link some path crosses, ascending.
func (r *Routing) VisitUsed(fn func(link int, gbps float64)) {
	for l, g := range r.usage {
		if g > 0 {
			fn(l, g)
		}
	}
}

// foldUsage accounts per-link usage. Each link's Gbps is a float
// accumulation: it folds pairs in index order and each pair's list in
// list order — the order the exported utilization metrics are pinned to.
func (r *Routing) foldUsage(links int) {
	r.usage = append(r.usage[:0], make([]float64, links)...)
	for _, asgs := range r.lists {
		for _, a := range asgs {
			for _, l := range a.Links {
				r.usage[l] += a.Gbps
			}
		}
	}
}

// MaxUtilization returns the highest used/capacity ratio across links
// in the POC network p, or 0 when nothing is used.
func (r *Routing) MaxUtilization(p *topo.POCNetwork) float64 {
	mx := 0.0
	r.VisitUsed(func(id int, used float64) {
		if u := used / p.Links[id].Capacity; u > mx {
			mx = u
		}
	})
	return mx
}

// router is one reusable routing arena: per-check state over the
// workspace's one graph of every logical link (candidate subsets select
// edges through the enabled / open masks, see apply) — the pooled
// Dijkstra engines' scratch, slice-backed residuals, the masks and work
// lists. Arenas are owned by a Workspace and must be used by one
// goroutine at a time (acquire/release); the graph they read is
// shared and never written.
type router struct {
	p         *topo.POCNetwork
	*netGraph // the workspace's graph, shared and read-only
	pr        *graph.PointRouter
	tr        *graph.TreeRouter
	resid     []float64    // residual Gbps per logical link
	enabled   *linkset.Set // links of the applied subset, minus bans

	// cross is a crossing index (reindex) — a live routing's, or that of
	// the routing route's phase 3 is repairing: link l's row is
	// cross[l*stride:(l+1)*stride], a bitset of pairs.
	cross  []uint64
	stride int

	// Position bitsets over g's edges, the masks the Dijkstra kernel
	// iterates: enabledPos mirrors enabled, and open = enabledPos ∧
	// resid ≥ 1e-9. Both change only in apply, setEnabled and addResid.
	enabledPos []uint64
	open       []uint64
	pathBuf    []graph.EdgeID // path output scratch
	targets    []graph.NodeID // a tree's targets (treeTo)

	// The open-mask search the point router's logs hold, for path to
	// resume: searched says they hold one, searchedAvoid is its avoid
	// set, and changed the routers (bit i = router i) whose links'
	// admission has moved since (touch). Only graphs of at most 64
	// routers track anything (track): larger ones never resume.
	track, searched bool
	searchedAvoid   *linkset.Set
	changed         uint64

	// Per-route scratch: the phase work lists, freeLink's candidates and
	// the link it bans, phase 3's detour set.
	phase2, stuck  []demand
	cands          []cand
	banned, detour *linkset.Set

	// Decomposition scratch (decomposePlan): the component labelling
	// and union-find forest, and the components' include sets.
	labels []int
	parts  linkset.Batch
}

// cand is one assignment freeLink may displace.
type cand struct{ pair, slot int }

// checkCands, when non-nil, sees every freeLink call's candidates as
// the crossing index derived them, before they are sorted: a test hook.
var checkCands func(res *Routing, l, exclude int, cands []cand)

// checkSearch, when non-nil, sees every point search of path and
// enabledPath before it runs, and whether it resumes: a test hook.
var checkSearch func(rt *router, src, dst int, m graph.Mask, resume bool)

// checkPrimaries, when non-nil, sees the primary path sets every
// Constraint-2 or -3 check builds, indexed by pair: a test hook.
var checkPrimaries func(c Constraint, primaries []*linkset.Set)

// treeTo grows the shortest-path tree from src over m that stops once
// the destinations of ds have settled.
func (rt *router) treeTo(src int, m *graph.Mask, ds []demand) *graph.ShortestTree {
	rt.targets = rt.targets[:0]
	for _, d := range ds {
		rt.targets = append(rt.targets, graph.NodeID(d.dst))
	}
	return rt.tr.Tree(graph.NodeID(src), m, rt.targets...)
}

// place routes gbps for pair d of res over up to maxPaths paths,
// avoiding the given logical links entirely. It appends the assignments
// to the pair's list and returns how many, and the amount left unplaced.
func (rt *router) place(res *Routing, d demand, gbps float64, maxPaths int, avoid *linkset.Set) (added int, remaining float64) {
	remaining = gbps
	for ; added < maxPaths && remaining > 1e-9; added++ {
		// Find the cheapest path that can carry any positive amount.
		edges, ok := rt.path(d.src, d.dst, avoid)
		if !ok {
			break
		}
		bn := rt.bottleneck(edges, remaining)
		if bn <= 1e-9 {
			break
		}
		links := res.keep(rt, edges)
		rt.addPath(links, -bn)
		res.push(d.pair, PathAssignment{Links: links, Gbps: bn})
		remaining -= bn
	}
	return added, remaining
}

// unplace releases, in list order, and drops pair i's last n assignments.
func (rt *router) unplace(res *Routing, i, n int) {
	l := res.lists[i]
	for _, a := range l[len(l)-n:] {
		rt.addPath(a.Links, a.Gbps)
	}
	res.lists[i] = l[:len(l)-n]
}

// ejectAndPlace tries to place up to gbps for demand d along its
// cheapest capacity-oblivious path, freeing deficit links by
// rerouting other pairs' assignments off them (whole assignments,
// smallest first). It mutates res and the residuals, decrements
// *moves per rerouted assignment, and returns the amount placed.
func (rt *router) ejectAndPlace(res *Routing, d demand, gbps float64, avoid *linkset.Set, moves *int) (placed float64, blocker int) {
	// Cheapest path over all enabled links (capacity ignored),
	// respecting only the pair's avoid set.
	edges := rt.enabledPath(d.src, d.dst, avoid)
	if len(edges) == 0 {
		return 0, -1
	}
	links := res.keep(rt, edges) // freeLink's searches reuse the scratch
	want := gbps
	// How much can this path carry if we free what is freeable? Try to
	// raise every deficit link's residual to `want`, reducing `want`
	// when a link cannot be freed that far. Track the tightest link so
	// the caller can detour around it on the next attempt.
	blocker = -1
	blockerResid := math.Inf(1)
	for _, l := range links {
		if rt.resid[l] >= want {
			continue
		}
		rt.freeLink(res, l, want-rt.resid[l], d.pair, moves)
		if rt.resid[l] < want {
			want = rt.resid[l]
		}
		if rt.resid[l] < blockerResid {
			blockerResid = rt.resid[l]
			blocker = l
		}
		if want <= 1e-9 {
			return 0, blocker
		}
	}
	if want <= 1e-9 {
		return 0, blocker
	}
	rt.addPath(links, -want)
	res.push(d.pair, PathAssignment{Links: links, Gbps: want})
	l := res.lists[d.pair]
	rt.index(d.pair, l[len(l)-1:])
	return want, blocker
}

// freeLink tries to raise link l's residual by `need` Gbps by
// rerouting other pairs' assignments off it (smallest assignments
// first, then by pair and list slot — tombstones count). The displaced
// pair keeps its avoid set; reroutes that cannot fully re-place are
// rolled back. The candidates come from the lists of the pairs l's
// crossing-index row names, a superset of those crossing l: a stale
// bit costs one list scan and adds no candidate.
func (rt *router) freeLink(res *Routing, l int, need float64, exclude int, moves *int) float64 {
	cands := rt.cands[:0]
	for wi, w := range rt.cross[l*rt.stride : (l+1)*rt.stride] {
		for ; w != 0; w &= w - 1 {
			pair := wi<<6 | bits.TrailingZeros64(w)
			if pair == exclude {
				continue
			}
			for slot, a := range res.lists[pair] {
				if crossesLink(a, l) {
					cands = append(cands, cand{pair, slot})
				}
			}
		}
	}
	rt.cands = cands
	if checkCands != nil {
		checkCands(res, l, exclude, cands)
	}
	// A total order, so any sort gives this order.
	slices.SortFunc(cands, func(ci, cj cand) int {
		gi, gj := res.lists[ci.pair][ci.slot].Gbps, res.lists[cj.pair][cj.slot].Gbps
		return cmp.Or(cmp.Compare(gi, gj), ci.pair-cj.pair, ci.slot-cj.slot)
	})
	freed := 0.0
	rt.banned.Add(l)
	rt.touch(l)
	for _, c := range cands {
		if freed >= need || *moves <= 0 {
			break
		}
		a := res.lists[c.pair][c.slot]
		if a.Gbps == 0 {
			continue // already displaced in this pass
		}
		// Release.
		rt.addPath(a.Links, a.Gbps)
		// Re-place avoiding l.
		*moves--
		added, left := rt.place(res, res.shape.pairs[c.pair], a.Gbps, 8, rt.banned)
		if left > 1e-9 {
			// Rollback: restore the original assignment.
			rt.unplace(res, c.pair, added)
			rt.addPath(a.Links, -a.Gbps)
			continue
		}
		// Commit: zero out the old slot; the new ones follow it.
		asgs := res.lists[c.pair]
		asgs[c.slot] = PathAssignment{Gbps: 0}
		rt.index(c.pair, asgs[len(asgs)-added:])
		freed += a.Gbps
	}
	rt.banned.Remove(l)
	rt.touch(l)
	return freed
}

// avoidOf returns pair i's avoid set; a nil slice bans nothing.
func avoidOf(avoid []*linkset.Set, i int) *linkset.Set {
	if avoid == nil {
		return nil
	}
	return avoid[i]
}

// readMode says what a route's caller reads of the routing it gets.
// A readVerdict route returns at the first demand whose remainder
// survives phase 3: that pair alone is in UnplacedPairs, Unplaced holds
// its remainder, and the lists keep their tombstones and the usage is
// stale. A feasible routing never takes that exit, so it is the
// readRouting route's byte for byte. Callers that test only Feasible()
// and give a failed routing back pass readVerdict (DESIGN §10.3).
type readMode uint8

const (
	readRouting readMode = iota
	readVerdict
)

// Route places tm onto the link subset include (nil = all links) and
// returns the routing. avoidPrimary, when non-nil, holds for each demand
// pair — indexed in tm.Demands order — the set of logical links that
// demand must not use (Constraint #3 bans each pair's primary path).
//
// Routing runs in two phases. Phase 1 computes one shortest-path tree
// per source, grown only until the source's destinations settle, and
// sends each demand down its tree path as far as residual capacity
// allows — this covers the vast majority of demand with O(sources)
// Dijkstra runs. Phase 2 repairs the remainder (and
// all demands with avoid sets) with per-demand point-to-point
// searches over the residual capacities.
func Route(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, opts Options, avoidPrimary []*linkset.Set) *Routing {
	opts = opts.withDefaults().resolve(p)
	return opts.Workspace.route(include, opts.Workspace.shapeOf(tm), opts, avoidPrimary, readRouting)
}

// route is Route on a resolved workspace and a demand shape: it places
// sh on an arena it holds for the call.
func (ws *Workspace) route(include *linkset.Set, sh *shape, opts Options, avoid []*linkset.Set, mode readMode) *Routing {
	rt := ws.acquire()
	defer ws.release(rt)
	rt.apply(include, 0, ws.all)
	return rt.route(ws, sh, opts, avoid, mode)
}

// route runs the three routing phases on an arena that has already
// been configured via apply, into a routing taken from ws.
func (rt *router) route(ws *Workspace, sh *shape, opts Options, avoidPrimary []*linkset.Set, mode readMode) *Routing {
	res := ws.takeRouting(sh)

	phase2, stuck := rt.phase2[:0], rt.stuck[:0]
	usable := rt.openMask(nil)
	for _, group := range sh.bySrc {
		tree := rt.treeTo(group[0].src, usable, group)
		for _, d := range group {
			if avoidOf(avoidPrimary, d.pair) != nil || !tree.Reachable(graph.NodeID(d.dst)) {
				phase2 = append(phase2, d)
				continue
			}
			rt.pathBuf = tree.AppendPathTo(rt.pathBuf[:0], rt.g, graph.NodeID(d.dst))
			bn := rt.bottleneck(rt.pathBuf, d.gbps)
			if bn <= 1e-9 {
				phase2 = append(phase2, d)
				continue
			}
			links := res.keep(rt, rt.pathBuf)
			rt.addPath(links, -bn)
			res.push(d.pair, PathAssignment{Links: links, Gbps: bn})
			if d.gbps -= bn; d.gbps > 1e-9 {
				phase2 = append(phase2, d)
			}
		}
	}

	sortDemands(phase2)
	for _, d := range phase2 {
		budget := opts.MaxPaths - len(res.lists[d.pair])
		if budget <= 0 {
			stuck = append(stuck, d)
			continue
		}
		if _, left := rt.place(res, d, d.gbps, budget, avoidOf(avoidPrimary, d.pair)); left > 1e-9 {
			d.gbps = left
			stuck = append(stuck, d)
		}
	}

	// Phase 3: ejection repair. A greedy packing can wedge a sliver of
	// demand even when a feasible packing exists (earlier demands took
	// capacity later ones needed). For each stuck remainder, walk its
	// cheapest path and try to reroute other pairs' assignments off
	// the deficit links, then place. Bounded by a global move budget,
	// so the phase stays cheap and deterministic. freeLink finds the
	// assignments crossing a link through the crossing index, which
	// phase 3 keeps over every assignment it adds.
	if len(stuck) > 0 {
		rt.reindex(res.lists)
	}
	moves := 512
	for _, d := range stuck {
		left := d.gbps
		pathBudget := opts.MaxPaths - len(res.lists[d.pair])
		// detour accumulates the worst deficit link of each failed
		// attempt so later attempts explore different paths.
		detour := rt.detour
		clear(detour.Words())
		detour.Union(avoidOf(avoidPrimary, d.pair))
		for attempt := 0; attempt < 8 && left > 1e-9 && moves > 0 && pathBudget > 0; attempt++ {
			placed, blocker := rt.ejectAndPlace(res, d, left, detour, &moves)
			left -= placed
			res.Ejected += placed
			if placed <= 1e-9 {
				if blocker < 0 {
					break // no path at all
				}
				detour.Add(blocker)
			} else {
				pathBudget--
			}
		}
		if left > 1e-9 {
			res.Unplaced += left
			res.UnplacedPairs = append(res.UnplacedPairs, [2]int{d.src, d.dst})
			if mode == readVerdict {
				break // Unplaced only grows: the verdict is fixed
			}
		}
	}
	res.moves = 512 - moves
	rt.phase2, rt.stuck = phase2[:0], stuck[:0]
	if mode == readVerdict && !res.Feasible() {
		return res
	}

	// Strip the zero-Gbps tombstones the ejection phase leaves behind,
	// then account usage.
	for i, asgs := range res.lists {
		res.lists[i] = slices.DeleteFunc(asgs, func(a PathAssignment) bool { return !(a.Gbps > 0) })
	}
	res.foldUsage(len(rt.p.Links))
	return res
}

// primaryPaths computes, for the demand pairs of sh in want, the links
// of each one's cheapest path in the subset include by the workspace's
// routing metric, ignoring capacity; the result is indexed by pair and
// nil for every other pair. Every pair's reachability is checked all
// the same: pairs with no path at all are reported in the second
// return, wanted or not. The sets share one backing allocation.
func (ws *Workspace) primaryPaths(include *linkset.Set, sh *shape, want []demand) ([]*linkset.Set, [][2]int) {
	rt := ws.acquire()
	defer ws.release(rt)
	rt.apply(include, 0, ws.all)

	p, pairs := ws.p, sh.pairs
	primaries := make([]*linkset.Set, len(pairs))
	sets := linkset.NewBatch(len(want), len(p.Links))
	for j, d := range want {
		primaries[d.pair] = &sets[j]
	}
	var unreachable [][2]int
	enabled := rt.enabledMask(nil)
	var tree *graph.ShortestTree
	for i, d := range pairs {
		// Row-major order: one Dijkstra per source covers its run of
		// destinations, and stops once they have settled.
		if i == 0 || d.src != pairs[i-1].src {
			j := i + 1
			for j < len(pairs) && pairs[j].src == d.src {
				j++
			}
			tree = rt.treeTo(d.src, enabled, pairs[i:j])
		}
		if !tree.Reachable(graph.NodeID(d.dst)) {
			unreachable = append(unreachable, [2]int{d.src, d.dst})
			primaries[i] = nil
			continue
		}
		if primaries[i] == nil {
			continue
		}
		rt.pathBuf = tree.AppendPathTo(rt.pathBuf[:0], rt.g, graph.NodeID(d.dst))
		for _, eid := range rt.pathBuf {
			primaries[i].Add(int(rt.linkFor[eid]))
		}
	}
	return primaries, unreachable
}

// headroomBuckets is the fixed layout for the capacity-headroom
// histogram (1 − max link utilization of the routing a check kept).
var headroomBuckets = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// pathsBuckets is the fixed layout for the paths-per-check histogram.
var pathsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// recordCheck publishes one feasibility verdict to the registry using
// commutative operations only (safe from parallel counterfactuals).
func recordCheck(r *obs.Registry, c Constraint, sum CacheSummary) {
	if r == nil {
		return
	}
	tag := fmt.Sprintf("c%d", int(c))
	r.Add("provision.check.computed."+tag, 1)
	if sum.Feasible {
		r.Add("provision.check.feasible."+tag, 1)
		r.Observe("provision.check.headroom", headroomBuckets, 1-sum.MaxUtilization)
		r.Observe("provision.check.paths", pathsBuckets, float64(sum.Paths))
	} else {
		r.Add("provision.check.infeasible."+tag, 1)
	}
}

// summarize condenses a check's verdict and kept routing into the
// memo/metrics summary.
func summarize(p *topo.POCNetwork, feasible bool, r *Routing) CacheSummary {
	paths := 0
	r.Visit(func(_, _ int, asgs []PathAssignment) { paths += len(asgs) })
	return CacheSummary{
		Feasible:       feasible,
		Unplaced:       r.Unplaced,
		MaxUtilization: r.MaxUtilization(p),
		Paths:          paths,
		Moves:          r.moves,
	}
}

// Check reports whether the link subset include satisfies the given
// constraint for tm. The returned Routing is the base (no-failure)
// routing; for Constraint3 it is the degraded routing.
func Check(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options) (bool, *Routing) {
	opts = opts.withDefaults().resolve(p)
	ok, r := checkRouting(p, include, opts.Workspace.shapeOf(tm), c, opts, func(*Routing) {})
	if opts.Obs != nil {
		recordCheck(opts.Obs, c, summarize(p, ok, r))
	}
	return ok, r
}

// checkRouting is Check without metrics recording; opts must already
// have defaults and a workspace applied. visit sees every feasible
// routing the constraint entails — the base routing, then each failure
// scenario's (Constraint2) or the degraded one (Constraint3) — stopping
// at the first infeasible routing — and keeps none: all but the
// returned one, the caller's, go back to the workspace.
func checkRouting(p *topo.POCNetwork, include *linkset.Set, sh *shape, c Constraint, opts Options, visit func(*Routing)) (bool, *Routing) {
	if c < Constraint1 || c > Constraint3 {
		panic(fmt.Sprintf("provision: unknown constraint %d", int(c)))
	}
	ws := opts.Workspace
	base := ws.route(include, sh, opts, nil, readRouting)
	if !base.Feasible() {
		return false, base
	}
	visit(base)
	if c == Constraint1 {
		return true, base
	}
	// Constraint2 fails only the heaviest pairs' primaries, so only
	// theirs are built; every pair must still be reachable.
	want := sh.pairs
	if c == Constraint2 {
		want = sh.heaviest(opts.FailureScenarios)
	}
	primaries, unreachable := ws.primaryPaths(include, sh, want)
	if checkPrimaries != nil {
		checkPrimaries(c, primaries)
	}
	if len(unreachable) > 0 {
		return false, base
	}
	switch c {
	case Constraint2:
		// Each scenario fails one pair's primary path for everyone and
		// re-routes from scratch, heaviest pair first. The move maxima
		// reach base only on an all-feasible verdict.
		moves := base.moves
		for _, d := range want {
			failed := primaries[d.pair]
			if failed == nil || failed.Empty() {
				continue
			}
			// Only a feasible scenario routing is read past its verdict.
			r := ws.route(subtract(include, failed, len(p.Links)), sh, opts, nil, readVerdict)
			if !r.Feasible() {
				ws.giveRouting(r)
				return false, base
			}
			visit(r)
			moves = max(moves, r.moves)
			ws.giveRouting(r)
		}
		base.moves = moves
		return true, base

	default: // Constraint3
		r := ws.route(include, sh, opts, primaries, readRouting)
		if base.moves > r.moves {
			r.moves = base.moves
		}
		ws.giveRouting(base)
		if r.Feasible() {
			visit(r)
		}
		return r.Feasible(), r
	}
}

// CheckCore is Check that also reports, when include satisfies the
// constraint, the union of links used by the base and every degraded
// routing. Links outside this core are idle under the constraint's
// scenarios, which makes it the natural seed for the auction's winner
// determination: everything else is a candidate to drop. On an
// infeasible set the core is nil. The verdict is bit-identical to
// Check's.
func CheckCore(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options) (bool, *linkset.Set) {
	opts = opts.withDefaults().resolve(p)
	ok, core, sum := checkCore(p, include, opts.Workspace.shapeOf(tm), c, opts, true)
	if opts.Obs != nil {
		recordCheck(opts.Obs, c, sum)
	}
	return ok, core
}

// checkCore is CheckCore without metrics recording — or, when needCore
// is false, without the core — additionally returning the same summary
// a Check on this key would produce (the cache stores it so hits answer
// either entry point). opts must already have defaults and a workspace,
// which gets the routing back.
func checkCore(p *topo.POCNetwork, include *linkset.Set, sh *shape, c Constraint, opts Options, needCore bool) (bool, *linkset.Set, CacheSummary) {
	var core *linkset.Set
	visit := func(*Routing) {}
	if needCore {
		core = linkset.New(len(p.Links))
		visit = func(r *Routing) { r.VisitUsed(func(l int, _ float64) { core.Add(l) }) }
	}
	ok, r := checkRouting(p, include, sh, c, opts, visit)
	if !ok {
		core = nil
	}
	sum := summarize(p, ok, r)
	opts.Workspace.giveRouting(r)
	return ok, core, sum
}

// subtract returns include minus removed. A nil include means "all
// links", so the result enumerates all links except removed. Two word
// scans — no per-ID hashing.
func subtract(include *linkset.Set, removed *linkset.Set, total int) *linkset.Set {
	out := cloneInclude(include, total)
	out.Subtract(removed)
	return out
}
