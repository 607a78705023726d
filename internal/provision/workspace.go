package provision

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/public-option/poc/internal/fnv64"
	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Workspace is a reusable provisioning arena for one (network, routing
// metric) pair. The auction's winner determination probes thousands of
// near-identical link subsets; a Workspace builds the routing graph
// over *every* logical link once and evaluates each candidate subset
// by XOR-diffing the include bitset into an arena's open-edge masks —
// an O(diff) word-scan per check instead of a full graph rebuild. The
// shortest-path kernel walks only the set bits of the mask, so the
// masked full graph settles exactly the labels a subset-built graph
// would: every path, cost and residual is bit-identical to the
// rebuild-per-check seed behaviour.
//
// The graph is built once, on the first acquire, and never written
// again; every arena reads it. A Workspace owns a free list of arenas,
// each nothing but per-check state (residuals, masks, TreeRouter and
// PointRouter scratch, work lists). Route/Check acquire an arena, apply
// the include set, and release it on return; parallel callers (the
// auction's counterfactuals) therefore each own a private arena for
// the duration of a routing — the per-worker ownership rule that keeps
// parallel runs bit-identical (DESIGN.md §10).
//
// The Workspace is bound to the Options.LinkCost metric it was created
// with: edge costs are frozen into the graph. Callers must not pass one
// workspace to checks using a different metric (an auction run builds
// one for its main winner determination and one that all its
// counterfactuals share, each bound to that metric for the run).
type Workspace struct {
	p        *topo.POCNetwork
	linkCost func(l topo.LogicalLink) float64
	all      *linkset.Set

	// net is the routing graph every arena reads, built by the first
	// acquire (graph) and immutable after.
	netOnce sync.Once
	net     *netGraph

	mu    sync.Mutex
	free  []*router
	freeR []*Routing  // routings that never left the package, for takeRouting
	freeL []shaveLogs // closed Shavers' logs, for takeLogs
	// lent counts the arenas [0] and routings [1] out and not yet
	// back, so a test can see a lease that no path returns.
	lent [2]int

	// Single-slot cache keyed by traffic-matrix pointer. The demand
	// shape is a pure function of the matrix, which is constant across
	// an auction, so it is computed once per workspace instead of once
	// per routing.
	dmu   sync.Mutex
	shTM  *traffic.Matrix
	shape *shape
}

// NewWorkspace returns a workspace for p bound to opts.LinkCost (nil
// means physical distance). The graph and the arenas are built lazily
// on first use, and arenas are recycled across checks.
func NewWorkspace(p *topo.POCNetwork, opts Options) *Workspace {
	return &Workspace{
		p:        p,
		linkCost: opts.LinkCost,
		all:      linkset.All(len(p.Links)),
	}
}

// resolve returns the workspace to use for a call on network p: the
// one threaded through opts when it matches, else a fresh transient
// workspace (package-level entry points without a workspace pay one
// arena build, exactly like the rebuild-per-call seed behaviour).
func (o Options) resolve(p *topo.POCNetwork) Options {
	if o.Workspace == nil || o.Workspace.p != p {
		o.Workspace = NewWorkspace(p, o)
	}
	return o
}

// acquire pops a free arena or builds one. Every acquire must be
// released on all paths (TestEveryEntryPointReturnsItsLeases checks
// the lent count after every entry point): a leaked arena pins its
// allocation until the workspace dies and silently degrades pool reuse
// for every later call.
func (ws *Workspace) acquire() *router {
	ws.mu.Lock()
	ws.lent[0]++
	if n := len(ws.free); n > 0 {
		rt := ws.free[n-1]
		ws.free[n-1] = nil
		ws.free = ws.free[:n-1]
		ws.mu.Unlock()
		return rt
	}
	ws.mu.Unlock()
	return newArena(ws.p, ws.graph())
}

// release returns an arena to the free list.
func (ws *Workspace) release(rt *router) {
	ws.mu.Lock()
	ws.lent[0]--
	ws.free = append(ws.free, rt)
	ws.mu.Unlock()
}

// takeRouting pops a recycled Routing, or makes one, reset to carry sh.
// A routing that stays inside the package is given back by whoever
// holds it last; one returned to a caller of the package never is.
func (ws *Workspace) takeRouting(sh *shape) *Routing {
	var r *Routing
	ws.mu.Lock()
	ws.lent[1]++
	if n := len(ws.freeR); n > 0 {
		r, ws.freeR[n-1] = ws.freeR[n-1], nil
		ws.freeR = ws.freeR[:n-1]
	}
	ws.mu.Unlock()
	if r == nil {
		r = &Routing{}
	}
	r.reset(sh)
	return r
}

// giveRouting puts a routing nothing refers to any more on the free list.
func (ws *Workspace) giveRouting(r *Routing) {
	ws.mu.Lock()
	ws.lent[1]--
	ws.freeR = append(ws.freeR, r)
	ws.mu.Unlock()
}

// shaveLogs is a Shaver's undo and lifted logs, empty, with the
// capacity earlier shaves grew them to.
type shaveLogs struct {
	undo   []undoRec
	lifted []PathAssignment
}

// takeLogs pops a closed Shaver's logs, or returns empty ones.
func (ws *Workspace) takeLogs() shaveLogs {
	var l shaveLogs
	ws.mu.Lock()
	if n := len(ws.freeL); n > 0 {
		l, ws.freeL[n-1] = ws.freeL[n-1], shaveLogs{}
		ws.freeL = ws.freeL[:n-1]
	}
	ws.mu.Unlock()
	return l
}

// giveLogs puts a closing Shaver's logs on the free list, emptied and
// cleared so they pin no routing or set until the next shave.
func (ws *Workspace) giveLogs(l shaveLogs) {
	clear(l.undo[:cap(l.undo)])
	clear(l.lifted[:cap(l.lifted)])
	l.undo, l.lifted = l.undo[:0], l.lifted[:0]
	ws.mu.Lock()
	ws.freeL = append(ws.freeL, l)
	ws.mu.Unlock()
}

// netGraph is the routing graph over every logical link of a network,
// with a metric frozen into the edge costs, and the maps between links
// and edges. Nothing writes it after buildGraph, so any number of
// arenas read one copy concurrently.
type netGraph struct {
	g       *graph.Graph
	linkFor []int32     // directed edge -> logical link
	posFor  [][2]uint32 // logical link -> mask positions of its two edges
}

// graph returns the workspace's routing graph, building it on the first
// call; concurrent first callers wait for the one build.
func (ws *Workspace) graph() *netGraph {
	ws.netOnce.Do(func() { ws.net = buildGraph(ws.p, ws.linkCost) })
	return ws.net
}

// buildGraph builds the routing graph over every logical link of p, its
// CSR layout included, with linkCost (nil = distance) as edge costs.
func buildGraph(p *topo.POCNetwork, linkCost func(l topo.LogicalLink) float64) *netGraph {
	g := graph.New(len(p.Routers))
	edgeFor := make([][2]graph.EdgeID, len(p.Links))
	for _, l := range p.Links {
		c := l.DistanceKm
		if linkCost != nil {
			c = linkCost(l)
		}
		e1, e2 := g.AddBiEdge(graph.NodeID(l.A), graph.NodeID(l.B), c, l.Capacity)
		edgeFor[l.ID] = [2]graph.EdgeID{e1, e2}
	}
	linkFor := make([]int32, g.NumEdges())
	for id, pair := range edgeFor {
		linkFor[pair[0]] = int32(id)
		linkFor[pair[1]] = int32(id)
	}
	g.SetLinks(linkFor)
	posFor := make([][2]uint32, len(p.Links))
	for id, pair := range edgeFor {
		posFor[id] = [2]uint32{uint32(g.Pos(pair[0])), uint32(g.Pos(pair[1]))}
	}
	return &netGraph{g: g, linkFor: linkFor, posFor: posFor}
}

// newArena builds the per-check state of one arena over ng, the graph
// of p. No link is enabled until the first apply.
func newArena(p *topo.POCNetwork, ng *netGraph) *router {
	words := (ng.g.NumEdges() + 63) / 64
	return &router{
		p:          p,
		netGraph:   ng,
		track:      len(p.Routers) <= 64,
		pr:         graph.NewPointRouter(ng.g),
		tr:         graph.NewTreeRouter(ng.g),
		resid:      make([]float64, len(p.Links)),
		enabled:    linkset.New(len(p.Links)),
		enabledPos: make([]uint64, words),
		open:       make([]uint64, words),
		banned:     linkset.New(len(p.Links)),
		detour:     linkset.New(len(p.Links)),
	}
}

// setBits sets or clears link l's two edge positions in a position
// bitset.
func (rt *router) setBits(words []uint64, l int, on bool) {
	for _, p := range rt.posFor[l] {
		if on {
			words[p>>6] |= 1 << (p & 63)
		} else {
			words[p>>6] &^= 1 << (p & 63)
		}
	}
}

// setEnabled moves link l into or out of the arena's enabled set and
// brings its open bits along: a disabled link is never open, a newly
// enabled one is open iff its residual is usable.
func (rt *router) setEnabled(l int, on bool) {
	if on {
		rt.enabled.Add(l)
	} else {
		rt.enabled.Remove(l)
	}
	rt.setBits(rt.enabledPos, l, on)
	rt.setBits(rt.open, l, on && rt.resid[l] >= 1e-9)
	rt.touch(l)
}

// touch marks the routers at both ends of link l changed for the next
// resumed search (path): the link's admission may have moved.
func (rt *router) touch(l int) {
	if rt.track {
		ln := &rt.p.Links[l]
		rt.changed |= 1<<uint(ln.A) | 1<<uint(ln.B)
	}
}

// addResid adjusts link l's residual by d Gbps. Every residual write
// after apply goes through here, so the open mask flips exactly when a
// link crosses the 1e-9 usability threshold. Disabled links keep their
// (stale) residual arithmetic but stay closed.
func (rt *router) addResid(l int, d float64) {
	old := rt.resid[l]
	r := old + d
	rt.resid[l] = r
	if now := r >= 1e-9; now != (old >= 1e-9) && rt.enabled.Contains(l) {
		rt.setBits(rt.open, l, now)
		rt.touch(l)
	}
}

// addPath adjusts the residual of every link on a path by d Gbps:
// negative books an assignment onto the arena, positive releases it.
func (rt *router) addPath(links []int, d float64) {
	for _, l := range links {
		rt.addResid(l, d)
	}
}

// openMask admits the enabled links with usable residual, minus the
// per-call avoid set (nil = none); enabledMask ignores capacity.
func (rt *router) openMask(avoid *linkset.Set) *graph.Mask {
	return &graph.Mask{Open: rt.open, Avoid: avoid.Words()}
}

func (rt *router) enabledMask(avoid *linkset.Set) *graph.Mask {
	return &graph.Mask{Open: rt.enabledPos, Avoid: avoid.Words()}
}

// path finds the cheapest src→dst path over the links open for
// capacity, minus avoid (nil = none); ok is false when there is none.
// The arena's last path search under the same avoid set, from any
// source to any destination, is resumed (graph.PointRouter.ResumeInto)
// with the routers touch marked since; nothing else resumes it. The
// edge sequence lives in arena scratch, valid until the arena's next
// search: bottleneck reads it, Routing.keep copies it.
func (rt *router) path(src, dst int, avoid *linkset.Set) (edges []graph.EdgeID, ok bool) {
	m := rt.openMask(avoid)
	resume := rt.searched && avoid == rt.searchedAvoid
	if checkSearch != nil {
		checkSearch(rt, src, dst, *m, resume)
	}
	var cost float64
	if resume {
		edges, cost = rt.pr.ResumeInto(rt.pathBuf[:0], graph.NodeID(src), graph.NodeID(dst), m, rt.changed)
	} else {
		edges, cost = rt.pr.PathInto(rt.pathBuf[:0], graph.NodeID(src), graph.NodeID(dst), m)
	}
	rt.searched, rt.searchedAvoid, rt.changed = rt.track, avoid, 0
	rt.pathBuf = edges[:0]
	return edges, !math.IsInf(cost, 1)
}

// enabledPath is path over every enabled link, capacity ignored. It
// replaces the point router's logs, so the next path starts afresh.
func (rt *router) enabledPath(src, dst int, avoid *linkset.Set) []graph.EdgeID {
	m := rt.enabledMask(avoid)
	if checkSearch != nil {
		checkSearch(rt, src, dst, *m, false)
	}
	edges, _ := rt.pr.PathInto(rt.pathBuf[:0], graph.NodeID(src), graph.NodeID(dst), m)
	rt.searched = false
	rt.pathBuf = edges[:0]
	return edges
}

// bottleneck is the least residual along edges, capped at gbps.
func (rt *router) bottleneck(edges []graph.EdgeID, gbps float64) float64 {
	for _, eid := range edges {
		if r := rt.resid[rt.linkFor[eid]]; r < gbps {
			gbps = r
		}
	}
	return gbps
}

// apply configures the arena for one candidate subset: links outside
// include (nil = all) are disabled, links inside get their residual
// reset to capacity×(1−headroom). The enabled position bits are
// flipped via a word-level XOR against the arena's current enabled
// set, so repeated checks over near-identical sets touch only the
// differing links; the open mask is then the enabled mask minus links
// whose fresh residual is already unusable. Residuals of excluded
// links are left stale — no mask admits them.
func (rt *router) apply(include *linkset.Set, headroom float64, all *linkset.Set) {
	target := include
	if target == nil {
		target = all
	}
	ew := rt.enabled.Words()
	tw := target.Words()
	for wi := range ew {
		var t uint64
		if wi < len(tw) {
			t = tw[wi]
		}
		diff := ew[wi] ^ t
		for diff != 0 {
			bit := uint(bits.TrailingZeros64(diff))
			diff &= diff - 1
			rt.setBits(rt.enabledPos, wi*64+int(bit), t&(uint64(1)<<bit) != 0)
		}
		ew[wi] = t
	}
	copy(rt.open, rt.enabledPos)
	rt.changed = ^uint64(0)
	scale := 1 - headroom
	target.Iterate(func(id int) {
		r := rt.p.Links[id].Capacity * scale
		rt.resid[id] = r
		if !(r >= 1e-9) {
			rt.setBits(rt.open, id, false)
		}
	})
}

// demand is one positive cell of a traffic matrix or, on the routing
// phases' work lists, what is still unplaced of one. pair is the cell's
// index in the matrix's row-major pair order (shape.pairs): the key of
// every per-pair structure, so nothing on the routing path hashes or
// searches for a (src,dst).
type demand struct {
	src, dst int
	gbps     float64
	pair     int
}

// sortDemands orders demands largest first — big aggregates get the
// short paths, which is both realistic and makes the greedy packing
// more effective — with ties broken by pair index, i.e. by (src, dst).
// No list holds a pair twice, so the order is total and any sort gives it.
func sortDemands(ds []demand) {
	slices.SortFunc(ds, func(a, b demand) int { return cmp.Or(cmp.Compare(b.gbps, a.gbps), a.pair-b.pair) })
}

// shape is everything routing derives from a traffic matrix alone.
type shape struct {
	// n is the matrix size and fp its fingerprint, the one cache keys
	// carry: FNV-1a over n, then each pair's (src<<32|dst, Gbps bits).
	n  int
	fp uint64
	// pairs is the pair index: tm.Demands order, pairs[i].pair == i.
	pairs []demand
	// bySize is pairs in sortDemands order; its prefixes are
	// Constraint 2's failure-scenario ranking.
	bySize []demand
	// bySrc groups pairs by source, heaviest row first (ties by source);
	// each group is in sortDemands order. Phase 1 grows one tree per group.
	bySrc [][]demand
	// memo holds the shape's restrictions to components (restricted).
	memo restrictMemo
}

// emptyShape is the shape of the zero matrix over n points.
func emptyShape(n int) *shape {
	return &shape{n: n, fp: fnv64.Mix(fnv64.Offset, uint64(n))}
}

// add appends d, a cell after every pair so far in row-major order, as
// the next pair, folds it into fp and returns its index.
func (sh *shape) add(d demand) int {
	d.pair = len(sh.pairs)
	sh.pairs = append(sh.pairs, d)
	sh.fp = mixDemand(sh.fp, d.src, d.dst, d.gbps)
	return d.pair
}

// mixDemand folds one demand pair into a matrix fingerprint.
func mixDemand(h uint64, src, dst int, gbps float64) uint64 {
	return fnv64.Mix(fnv64.Mix(h, uint64(src)<<32|uint64(dst)), math.Float64bits(gbps))
}

// demandFP is tm's fingerprint, newShape(tm).fp, without the shape.
func demandFP(tm *traffic.Matrix) uint64 {
	h := fnv64.Mix(fnv64.Offset, uint64(tm.Size()))
	tm.Demands(func(s, d int, g float64) { h = mixDemand(h, s, d, g) })
	return h
}

func newShape(tm *traffic.Matrix) *shape {
	sh := emptyShape(tm.Size())
	tm.Demands(func(s, d int, g float64) { sh.add(demand{src: s, dst: d, gbps: g}) })
	n := len(sh.pairs)
	sh.bySize = append(make([]demand, 0, n), sh.pairs...)
	sortDemands(sh.bySize)

	// A source's pairs are one run of the row-major list. Sorting each
	// run in place gives bySize restricted to that source, and the row
	// totals fold in that order.
	type row struct {
		ds    []demand
		total float64
	}
	var rows []row
	grouped := append(make([]demand, 0, n), sh.pairs...)
	for lo := 0; lo < n; {
		hi, total := lo, 0.0
		for hi < n && grouped[hi].src == grouped[lo].src {
			hi++
		}
		sortDemands(grouped[lo:hi])
		for _, d := range grouped[lo:hi] {
			total += d.gbps
		}
		rows = append(rows, row{grouped[lo:hi], total})
		lo = hi
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].ds[0].src < rows[j].ds[0].src
	})
	sh.bySrc = make([][]demand, len(rows))
	for i, r := range rows {
		sh.bySrc[i] = r.ds
	}
	return sh
}

// heaviest returns up to n demands, largest first.
func (sh *shape) heaviest(n int) []demand {
	return sh.bySize[:min(n, len(sh.bySize))]
}

// shapeOf returns tm's demand shape, computed once per matrix.
func (ws *Workspace) shapeOf(tm *traffic.Matrix) *shape {
	ws.dmu.Lock()
	defer ws.dmu.Unlock()
	if ws.shTM != tm {
		ws.shTM, ws.shape = tm, newShape(tm)
	}
	return ws.shape
}
