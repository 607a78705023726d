// Package netsim is a flow-level simulator of the POC fabric. It
// models the connectivity structure of the paper's Figure 1:
// customers sit behind last-mile providers (LMPs); LMPs — and large
// CSPs directly — attach to the POC at router sites; the POC carries
// flows edge-to-edge over the auctioned link set as a transparent,
// policy-free fabric; anything not on the POC is reached through an
// external ISP attachment.
//
// Flows reserve bandwidth on admission (min of demand and bottleneck
// residual along the cheapest feasible path), are re-routed on link
// failure, and accumulate transferred volume via Tick so the market
// package can bill usage. QoS classes are open and posted-price:
// a higher class buys a larger sharing weight, never a per-source
// preference — the fabric has no notion of favored endpoints.
//
// The data plane is built for million-flow populations: flows live in
// a struct-of-arrays table (flowtable.go) with paths in a shared
// arena, per-link crossing indexes are packed slices kept in
// admission order, and degraded flows are registered per source
// attachment shard so repair passes touch only the shards that hold
// victims. All of it is observationally identical to a naive
// map-of-pointers fabric: residual sums, iteration orders and metric
// samples reproduce the reference engine bit for bit.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/topo"
)

// EndpointKind classifies fabric attachments.
type EndpointKind int

const (
	// LMPEndpoint is a last-mile provider attachment.
	LMPEndpoint EndpointKind = iota
	// CSPEndpoint is a directly-attached content/service provider.
	CSPEndpoint
	// ExternalEndpoint represents the rest of the Internet behind an
	// external ISP attachment.
	ExternalEndpoint
)

func (k EndpointKind) String() string {
	switch k {
	case LMPEndpoint:
		return "LMP"
	case CSPEndpoint:
		return "CSP"
	case ExternalEndpoint:
		return "external"
	default:
		return fmt.Sprintf("EndpointKind(%d)", int(k))
	}
}

// EndpointID identifies an attachment.
type EndpointID int

// Endpoint is one attachment to the fabric.
type Endpoint struct {
	ID     EndpointID
	Name   string
	Kind   EndpointKind
	Router int // POC router index
}

// Class is a posted-price QoS class. Weight scales the flow's claim
// during contention; the price is what the POC publishes. Classes
// apply uniformly to any buyer — the fabric cannot express per-source
// preferences.
type Class struct {
	Name   string
	Weight float64 // >= 1
	Price  float64 // posted, per Gbps-month
}

// BestEffort is the default class.
var BestEffort = Class{Name: "best-effort", Weight: 1, Price: 0}

// FlowID identifies an admitted flow. IDs encode the flow's table
// slot plus a per-slot generation, so the ID of a stopped flow stays
// permanently invalid even after its slot is recycled. IDs are opaque
// and non-negative; their numeric order is NOT admission order — use
// Flow.Seq for that.
type FlowID int

// Flow is one admitted aggregate flow.
type Flow struct {
	ID FlowID
	// Seq is the flow's admission sequence number. Flows, RangeFlows
	// and every order-sensitive accumulation inside the fabric iterate
	// in ascending Seq (admission) order; unlike ID it never recycles.
	Seq       int64
	Src, Dst  EndpointID
	Demand    float64 // requested Gbps
	Allocated float64 // reserved Gbps (≤ Demand)
	Class     Class
	Links     []int   // logical links along the path
	LatencyKm float64 // propagation distance of the path
	// TransferredGB accumulates volume via Tick.
	TransferredGB float64
}

// shard is the per-source-attachment slice of the flow population.
// Its degraded registry lists every slot whose flow is below demand —
// exactly the victim set of a repair pass — so RepairLinks gathers
// victims without scanning the table.
type shard struct {
	degraded []int32
}

// Fabric is the POC data plane over a selected link set.
type Fabric struct {
	net      *topo.POCNetwork
	selected *linkset.Set // always materialized (nil input = all links)
	failed   *linkset.Set

	endpoints []Endpoint
	epByName  map[string]EndpointID
	// shards is indexed by source EndpointID, in lockstep with
	// endpoints.
	shards []shard

	tab       flowTable
	mcasts    map[MulticastID]*Multicast
	nextMcast int
	anycast   map[string][]EndpointID

	// used / resid are maintained in lockstep per logical link:
	// used[l] is the deterministically-ordered allocation sum and
	// resid[l] is always Capacity − used[l], written together so both
	// reproduce a from-scratch recompute bit for bit.
	used  []float64
	resid []float64

	// Per-link crossing indexes: packed slices of the flow slots /
	// multicast IDs holding a reservation on each logical link, kept
	// in ascending admission (seq) order so residual resums read them
	// front to back with no sorting.
	flowsOn  [][]int32
	mcastsOn [][]int32

	g       *graph.Graph
	pr      *graph.PointRouter
	linkFor []int32

	// mask is the path-search edge mask (failed links avoided,
	// residual ≥ the demand being placed), reparameterized by usable;
	// edgeBuf is the reusable Dijkstra output buffer; memo answers
	// findPath's searches whose certificates still hold; tr is the
	// multicast tree engine, built on first use.
	mask    graph.Mask
	edgeBuf []graph.EdgeID
	memo    pathMemo
	tr      *graph.TreeRouter

	// Epoch-stamped scratch for bulk operations (see nextMark).
	linkMark   []uint32
	markCur    uint32
	touchedBuf []int32
	slotsBuf   []int32
	victimBuf  []int32

	// obs, when non-nil, receives fabric metrics (flow admission and
	// reroute outcomes, per-link peak utilization, crossing-index
	// sizes). The fabric is single-threaded, so ordered registry
	// operations are safe everywhere.
	obs *obs.Registry
	// nFlowIdx / nMcastIdx track the total entry counts of the
	// crossing indexes so their peaks export without a full scan.
	nFlowIdx  int
	nMcastIdx int
}

// SetObserver attaches a metrics registry to the fabric (nil detaches).
func (f *Fabric) SetObserver(r *obs.Registry) { f.obs = r }

// New builds a fabric over the network's selected links (nil = all).
func New(p *topo.POCNetwork, selected map[int]bool) *Fabric {
	sel := linkset.FromMap(selected, len(p.Links))
	f := &Fabric{
		net:      p,
		selected: sel,
		failed:   linkset.New(len(p.Links)),
		epByName: map[string]EndpointID{},
		used:     make([]float64, len(p.Links)),
		resid:    make([]float64, len(p.Links)),
		flowsOn:  make([][]int32, len(p.Links)),
		mcastsOn: make([][]int32, len(p.Links)),
		linkMark: make([]uint32, len(p.Links)),
	}
	g, edgeFor := p.Graph(sel)
	f.g = g
	if f.selected == nil {
		f.selected = linkset.All(len(p.Links))
	}
	f.linkFor = make([]int32, g.NumEdges())
	for id, pair := range edgeFor {
		if pair[0] == graph.Undefined {
			continue
		}
		f.linkFor[pair[0]] = int32(id)
		f.linkFor[pair[1]] = int32(id)
		f.resid[id] = p.Links[id].Capacity
	}
	f.g.SetLinks(f.linkFor)
	f.pr = graph.NewPointRouter(f.g)
	f.mask.Resid = f.resid
	return f
}

// Attach registers an endpoint at the given POC router and returns
// its ID.
func (f *Fabric) Attach(name string, kind EndpointKind, router int) (EndpointID, error) {
	if router < 0 || router >= len(f.net.Routers) {
		return 0, fmt.Errorf("netsim: router %d out of range", router)
	}
	if _, dup := f.epByName[name]; dup {
		return 0, fmt.Errorf("netsim: endpoint %q already attached", name)
	}
	id := EndpointID(len(f.endpoints))
	f.endpoints = append(f.endpoints, Endpoint{ID: id, Name: name, Kind: kind, Router: router})
	f.shards = append(f.shards, shard{})
	f.epByName[name] = id
	return id, nil
}

// Endpoint returns a registered endpoint.
func (f *Fabric) Endpoint(id EndpointID) (Endpoint, error) {
	if id < 0 || int(id) >= len(f.endpoints) {
		return Endpoint{}, fmt.Errorf("netsim: unknown endpoint %d", id)
	}
	return f.endpoints[id], nil
}

// Endpoints returns all attachments in ID order.
func (f *Fabric) Endpoints() []Endpoint {
	return append([]Endpoint(nil), f.endpoints...)
}

// usable admits the non-failed links with at least want Gbps of
// residual. The returned mask is the fabric's shared one — valid until
// the next usable or findPath call.
func (f *Fabric) usable(want float64) *graph.Mask {
	f.mask.Avoid = f.failed.Words()
	f.mask.Want = want
	return &f.mask
}

// findPath returns the cheapest path able to carry the full demand,
// falling back to the cheapest path with any spare capacity at all
// (the flow is then admitted degraded at the bottleneck). Demand-aware
// placement is what makes repair meaningful: after a link comes back,
// a degraded flow prefers a slightly longer path that restores its
// full allocation over the short one that cannot.
//
// The path comes back as logical links in the path memo's storage: it
// is valid only until the next findPath call.
func (f *Fabric) findPath(a, b int, demand float64) ([]int32, float64) {
	links, cost := f.memoSearch(a, b, demand)
	if math.IsInf(cost, 1) {
		links, cost = f.memoSearch(a, b, 1e-9)
	}
	return links, cost
}

// nextMark advances the epoch stamp used by bulk operations for O(1)
// set membership over slots and links. On the (astronomically rare)
// wraparound the stamp arrays are cleared so stale marks cannot
// collide.
func (f *Fabric) nextMark() uint32 {
	f.markCur++
	if f.markCur == 0 {
		for i := range f.tab.mark {
			f.tab.mark[i] = 0
		}
		for i := range f.linkMark {
			f.linkMark[i] = 0
		}
		f.markCur = 1
	}
	return f.markCur
}

// setUsed writes a link's allocation sum, keeps the residual in
// lockstep, and samples the utilization peak exactly where a full
// recompute would have.
func (f *Fabric) setUsed(l int, used float64) {
	f.used[l] = used
	f.resid[l] = f.net.Links[l].Capacity - used
	if f.obs != nil && used > 0 {
		f.obs.KeyedMax("netsim.link_peak_util", l, used/f.net.Links[l].Capacity)
	}
}

// resum rebuilds one link's allocation sum from first principles:
// flows in admission order, then multicasts in ID order — the same
// deterministic left-to-right float sum a full scan of a sorted flow
// map would produce. Keeping residuals as exact ordered sums (instead
// of adding and subtracting float deltas) means fail → repair → fail
// cycles conserve capacity bit for bit over arbitrarily long
// simulations: a link whose last reservation is released reads
// exactly Capacity again, with no accumulated rounding drift.
func (f *Fabric) resum(l int) {
	used := 0.0
	for _, s := range f.flowsOn[l] {
		used += f.tab.alloc[s]
	}
	for _, id := range f.mcastsOn[l] {
		used += f.mcasts[MulticastID(id)].Gbps
	}
	f.setUsed(l, used)
}

// recompute resums the given logical links. The packed crossing
// indexes keep this cheap: only the flows actually on a touched link
// are summed, already in deterministic admission order.
func (f *Fabric) recompute(links []int) {
	for _, l := range links {
		f.resum(l)
	}
}

// addUsed credits a fresh reservation on a link. The increment equals
// a full resum by induction — the link's flow list only ever grows at
// the tail between resums — but only while no multicast holds the
// link: multicast rates sum after all flow allocations, so a tail
// append under a multicast must fall back to the full ordered resum
// to keep the float sum's association order exact.
func (f *Fabric) addUsed(l int, alloc float64) {
	if len(f.mcastsOn[l]) == 0 {
		f.setUsed(l, f.used[l]+alloc)
	} else {
		f.resum(l)
	}
}

// setAlloc writes a flow's allocation and maintains its source
// shard's degraded registry: membership is exactly "allocated below
// demand", the repair pass's victim predicate.
func (f *Fabric) setAlloc(s int32, alloc float64) {
	t := &f.tab
	t.alloc[s] = alloc
	deg := alloc < t.demand[s]-1e-9
	if pos := t.degPos[s]; deg && pos < 0 {
		sh := &f.shards[t.src[s]]
		t.degPos[s] = int32(len(sh.degraded))
		sh.degraded = append(sh.degraded, s)
	} else if !deg && pos >= 0 {
		f.clearDegraded(s)
	}
}

// clearDegraded removes a slot from its shard's degraded registry
// (swap-delete; the registry is order-free, victims are re-sorted at
// gather time).
func (f *Fabric) clearDegraded(s int32) {
	t := &f.tab
	pos := t.degPos[s]
	if pos < 0 {
		return
	}
	sh := &f.shards[t.src[s]]
	last := sh.degraded[len(sh.degraded)-1]
	sh.degraded[pos] = last
	t.degPos[last] = pos
	sh.degraded = sh.degraded[:len(sh.degraded)-1]
	t.degPos[s] = -1
}

// crossInsert adds a slot to a link's packed crossing index, keeping
// it in ascending admission order. A freshly admitted flow carries
// the globally largest seq and appends in O(1); a re-placed flow
// (which kept its original seq) binary-searches its position.
func (f *Fabric) crossInsert(l int, s int32) {
	list := f.flowsOn[l]
	seq := f.tab.seq[s]
	if n := len(list); n == 0 || f.tab.seq[list[n-1]] < seq {
		f.flowsOn[l] = append(list, s)
		return
	}
	i := sort.Search(len(list), func(k int) bool { return f.tab.seq[list[k]] > seq })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = s
	f.flowsOn[l] = list
}

// crossRemove deletes a slot from a link's packed crossing index by
// binary search on its admission seq.
func (f *Fabric) crossRemove(l int, s int32) {
	list := f.flowsOn[l]
	seq := f.tab.seq[s]
	i := sort.Search(len(list), func(k int) bool { return f.tab.seq[list[k]] >= seq })
	f.flowsOn[l] = append(list[:i], list[i+1:]...)
}

// indexFlow records a flow's reservation on each link of its path.
func (f *Fabric) indexFlow(s int32) {
	links := f.tab.path(s)
	for _, l := range links {
		f.crossInsert(int(l), s)
	}
	f.nFlowIdx += len(links)
	f.obs.SetMax("netsim.crossing.flow_entries_peak", float64(f.nFlowIdx))
}

// indexMcast records a multicast tree's reservation on each tree
// link. Multicast IDs never recycle, so a new tree always appends at
// the tail of each link's (ascending) index.
func (f *Fabric) indexMcast(m *Multicast) {
	for _, l := range m.TreeLinks {
		f.mcastsOn[l] = append(f.mcastsOn[l], int32(m.ID))
	}
	f.nMcastIdx += len(m.TreeLinks)
	f.obs.SetMax("netsim.crossing.mcast_entries_peak", float64(f.nMcastIdx))
}

// unindexMcast removes a multicast tree's reservation from each link.
func (f *Fabric) unindexMcast(m *Multicast) {
	for _, l := range m.TreeLinks {
		list := f.mcastsOn[l]
		i := sort.Search(len(list), func(k int) bool { return list[k] >= int32(m.ID) })
		f.mcastsOn[l] = append(list[:i], list[i+1:]...)
	}
	f.nMcastIdx -= len(m.TreeLinks)
}

// StartFlow admits an aggregate flow between two endpoints. The flow
// reserves min(demand, bottleneck) Gbps along the cheapest usable
// path; a flow that can reserve nothing is rejected. The class must
// have Weight >= 1 (use BestEffort for the default). The returned
// Flow is a snapshot taken at admission.
func (f *Fabric) StartFlow(src, dst EndpointID, demandGbps float64, class Class) (*Flow, error) {
	s, err := f.startOne(src, dst, demandGbps, class)
	if err != nil {
		return nil, err
	}
	fl := f.snapshot(s)
	return &fl, nil
}

// startOne is the allocation-lean admission core shared by StartFlow
// and StartFlows; it returns the admitted flow's table slot.
func (f *Fabric) startOne(src, dst EndpointID, demandGbps float64, class Class) (int32, error) {
	se, err := f.Endpoint(src)
	if err != nil {
		return -1, err
	}
	de, err := f.Endpoint(dst)
	if err != nil {
		return -1, err
	}
	if demandGbps <= 0 || math.IsNaN(demandGbps) || math.IsInf(demandGbps, 0) {
		return -1, fmt.Errorf("netsim: invalid demand %v", demandGbps)
	}
	if class.Weight < 1 || math.IsNaN(class.Weight) {
		return -1, fmt.Errorf("netsim: class weight %v < 1", class.Weight)
	}
	if se.Router == de.Router {
		// Same attachment site: the fabric carries it for free (local
		// cross-connect); no links reserved.
		s := f.tab.admit(src, dst, demandGbps, f.tab.internClass(class))
		f.setAlloc(s, demandGbps)
		f.obs.Add("netsim.flows.admitted", 1)
		f.obs.Add("netsim.flows.local", 1)
		return s, nil
	}
	start, alloc, lat, reason := f.reserve(se.Router, de.Router, demandGbps)
	if reason != "" {
		f.obs.Add("netsim.flows.rejected", 1)
		return -1, fmt.Errorf("netsim: %s %s→%s", reason, se.Name, de.Name)
	}
	t := &f.tab
	s := t.admit(src, dst, demandGbps, t.internClass(class))
	f.commit(s, start, alloc, lat)
	for _, l := range t.path(s) {
		f.addUsed(int(l), alloc)
	}
	f.obs.Add("netsim.flows.admitted", 1)
	return s, nil
}

// reserve places demand between routers a and b: it finds the path,
// appends it to the arena as a tentative span and returns the span's
// start, the bottleneck allocation and the path latency. On rejection
// it truncates the span away and returns a constant reason instead, so
// a failed placement allocates nothing.
func (f *Fabric) reserve(a, b int, demand float64) (start int, alloc, lat float64, reason string) {
	links, cost := f.findPath(a, b, demand)
	if math.IsInf(cost, 1) {
		return 0, 0, 0, "no usable path"
	}
	t := &f.tab
	t.growArena(len(links))
	start = len(t.arena.data)
	alloc = demand
	for _, l := range links {
		t.arena.data = append(t.arena.data, l)
		lat += f.net.Links[l].DistanceKm
		if f.resid[l] < alloc {
			alloc = f.resid[l]
		}
	}
	if alloc <= 1e-9 {
		t.arena.data = t.arena.data[:start]
		return 0, 0, 0, "no capacity on path"
	}
	return start, alloc, lat, ""
}

// commit binds a span reserve returned to slot s with its allocation
// and latency, and enters the slot in its links' crossing indexes.
// The caller books the links' allocation sums.
func (f *Fabric) commit(s int32, start int, alloc, lat float64) {
	f.tab.commitPath(s, start)
	f.setAlloc(s, alloc)
	f.tab.latency[s] = lat
	f.indexFlow(s)
}

// unplace releases a slot's path: it leaves its links' crossing
// indexes, the links that have not failed are resummed without it and
// the span is freed. The slot itself stays live. A reroute resums each
// failed link once, after the last of its victims has left it
// (rerouteSlots).
func (f *Fabric) unplace(s int32) {
	links := f.tab.path(s)
	for _, l := range links {
		f.crossRemove(int(l), s)
	}
	f.nFlowIdx -= len(links)
	for _, l := range links {
		if !f.failed.Contains(int(l)) {
			f.resum(int(l))
		}
	}
	f.tab.freePath(s)
}

// FlowSpec is one admission request for the bulk entry points.
type FlowSpec struct {
	Src, Dst EndpointID
	Demand   float64
	Class    Class
}

// StartFlows admits a batch of flows in spec order, exactly as a
// sequence of StartFlow calls would (each admission sees the
// residuals left by the previous one) but without materializing a
// snapshot per flow. The returned slice has one entry per spec: the
// admitted flow's ID, or -1 where admission failed (invalid spec, no
// usable path, or no capacity).
func (f *Fabric) StartFlows(specs []FlowSpec) []FlowID {
	f.tab.compactArena()
	f.tab.reserve(len(specs))
	ids := make([]FlowID, len(specs))
	for i := range specs {
		sp := &specs[i]
		s, err := f.startOne(sp.Src, sp.Dst, sp.Demand, sp.Class)
		if err != nil {
			ids[i] = -1
			continue
		}
		ids[i] = f.tab.id(s)
	}
	return ids
}

// StopFlow releases a flow's reservation: StopFlows of one ID, but
// strict about an unknown one.
func (f *Fabric) StopFlow(id FlowID) error {
	if _, ok := f.tab.lookup(id); !ok {
		return fmt.Errorf("netsim: unknown flow %d", id)
	}
	ids := [1]FlowID{id}
	f.StopFlows(ids[:])
	return nil
}

// StopFlows releases a batch of flows and returns how many were
// stopped. Unknown (already stopped or never admitted) IDs are
// skipped — a bulk teardown is idempotent where the single-flow call
// is strict. Each touched link's crossing index is rewritten in one
// filter pass and resummed once, instead of once per stopped flow.
func (f *Fabric) StopFlows(ids []FlowID) int {
	t := &f.tab
	mark := f.nextMark()
	stopping := f.slotsBuf[:0]
	touched := f.touchedBuf[:0]
	for _, id := range ids {
		s, ok := t.lookup(id)
		if !ok || t.mark[s] == mark {
			continue
		}
		t.mark[s] = mark
		stopping = append(stopping, s)
		for _, l := range t.path(s) {
			if f.linkMark[l] != mark {
				f.linkMark[l] = mark
				touched = append(touched, l)
			}
		}
	}
	for _, l := range touched {
		list := f.flowsOn[l]
		out := list[:0]
		for _, s := range list {
			if t.mark[s] != mark {
				out = append(out, s)
			} else {
				f.nFlowIdx--
			}
		}
		f.flowsOn[l] = out
	}
	for _, s := range stopping {
		f.clearDegraded(s)
		t.freePath(s)
		t.release(s)
	}
	for _, l := range touched {
		f.resum(int(l))
	}
	f.slotsBuf, f.touchedBuf = stopping[:0], touched[:0]
	t.compactArena()
	if len(stopping) > 0 {
		f.obs.Add("netsim.flows.stopped", int64(len(stopping)))
	}
	return len(stopping)
}

// view builds the Flow of a live slot. Its path is appended to links
// and the Flow's Links is that tail, capped at its length (nil for a
// pathless flow); the extended links is returned for the next view.
func (t *flowTable) view(s int32, links []int) (Flow, []int) {
	fl := Flow{
		ID:            t.id(s),
		Seq:           t.seq[s],
		Src:           t.src[s],
		Dst:           t.dst[s],
		Demand:        t.demand[s],
		Allocated:     t.alloc[s],
		Class:         t.classes[t.classID[s]],
		LatencyKm:     t.latency[s],
		TransferredGB: t.transferred[s],
	}
	if t.pathLen[s] > 0 {
		start := len(links)
		for _, l := range t.path(s) {
			links = append(links, int(l))
		}
		fl.Links = links[start:len(links):len(links)]
	}
	return fl, links
}

// snapshot materializes a Flow view of a live slot with a fresh Links
// slice.
func (f *Fabric) snapshot(s int32) Flow {
	fl, _ := f.tab.view(s, make([]int, 0, f.tab.pathLen[s]))
	return fl
}

// Flow returns a snapshot of an admitted flow.
func (f *Fabric) Flow(id FlowID) (Flow, error) {
	s, ok := f.tab.lookup(id)
	if !ok {
		return Flow{}, fmt.Errorf("netsim: unknown flow %d", id)
	}
	return f.snapshot(s), nil
}

// Flows returns snapshots of all admitted flows in admission order.
// All snapshots' Links share one backing array sized exactly for the
// live population.
func (f *Fabric) Flows() []Flow {
	t := &f.tab
	out := make([]Flow, 0, t.live)
	backing := make([]int, 0, t.arena.liveLinks)
	t.rangeLive(func(s int32) bool {
		var fl Flow
		fl, backing = t.view(s, backing)
		out = append(out, fl)
		return true
	})
	return out
}

// RangeFlows calls fn for every admitted flow in admission order
// without materializing the population: the *Flow argument (including
// its Links slice) is reused between calls and valid only during the
// callback. Return false to stop early. This is the allocation-free
// alternative to Flows for hot read paths.
func (f *Fabric) RangeFlows(fn func(*Flow) bool) {
	t := &f.tab
	var fl Flow
	var linkBuf []int
	t.rangeLive(func(s int32) bool {
		fl, linkBuf = t.view(s, linkBuf[:0])
		return fn(&fl)
	})
}

// NumFlows returns the number of currently admitted flows.
func (f *Fabric) NumFlows() int { return f.tab.live }

// FailLink marks a logical link failed and re-routes the flows that
// crossed it, in descending class-weight order (higher classes get
// first claim on the surviving capacity — an open, posted-price
// property, not a per-source preference). Flows that cannot be
// re-routed are degraded to zero allocation but stay registered so
// the caller can observe the outage; RepairLink re-admits them.
func (f *Fabric) FailLink(link int) []FlowID {
	return f.FailLinks([]int{link})
}

// FailLinks fails a set of links atomically (one reroute pass after
// all are marked down — a correlated fiber cut, not a sequence of
// independent cuts). Out-of-range, already-failed, and unselected
// entries are skipped — a link the fabric never leased has no
// reservation to fail and must not appear in FailedLinks; nil is
// returned when nothing newly failed.
func (f *Fabric) FailLinks(links []int) []FlowID {
	newly := f.touchedBuf[:0]
	count := 0
	for _, link := range links {
		if link < 0 || link >= len(f.net.Links) || f.failed.Contains(link) {
			continue
		}
		if !f.selected.Contains(link) {
			continue
		}
		f.failed.Add(link)
		newly = append(newly, int32(link))
		count++
	}
	f.touchedBuf = newly[:0]
	if count == 0 {
		return nil
	}
	f.obs.Add("netsim.links.failed", int64(count))
	// Victims are exactly the flows crossing a newly failed link: read
	// them off the crossing indexes (with an epoch stamp de-duping
	// flows that crossed several of the cut links) instead of scanning
	// the whole population.
	t := &f.tab
	mark := f.nextMark()
	victims := f.victimBuf[:0]
	for _, l := range newly {
		for _, s := range f.flowsOn[l] {
			if t.mark[s] != mark {
				t.mark[s] = mark
				victims = append(victims, s)
			}
		}
	}
	return f.rerouteSlots(victims)
}

// RepairLink clears a failure and re-upgrades previously degraded or
// dropped flows: every flow below its demand is released and re-placed
// in descending class-weight order (then admission order), so repaired
// capacity flows back to the highest classes first, deterministically.
func (f *Fabric) RepairLink(link int) []FlowID {
	return f.RepairLinks([]int{link})
}

// RepairLinks repairs a set of links atomically with a single
// re-upgrade pass. Entries that are not failed are skipped; nil is
// returned when nothing was repaired.
func (f *Fabric) RepairLinks(links []int) []FlowID {
	repaired := 0
	for _, link := range links {
		if link < 0 || link >= len(f.net.Links) || !f.failed.Contains(link) {
			continue
		}
		f.failed.Remove(link)
		repaired++
	}
	if repaired == 0 {
		return nil
	}
	f.obs.Add("netsim.links.repaired", int64(repaired))
	// Victims are exactly the below-demand flows, which the shards'
	// degraded registries hold by construction — no table scan. The
	// gather order is irrelevant: rerouteSlots re-sorts by (class
	// weight, admission seq).
	victims := f.victimBuf[:0]
	for i := range f.shards {
		victims = append(victims, f.shards[i].degraded...)
	}
	return f.rerouteSlots(victims)
}

// linksOfBP returns the fabric's selected links owned by bp, in ID
// order. Virtual links (topo.VirtualBP) are addressed with bp = -1.
func (f *Fabric) linksOfBP(bp int) []int {
	var out []int
	for id := range f.net.Links {
		if f.net.Links[id].BP != bp {
			continue
		}
		if !f.selected.Contains(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// FailBP takes down every selected link leased from one BP at once —
// the paper's Constraint-#2 planning case ("any single BP failure")
// realized on the running fabric. Flows are rerouted in one pass.
func (f *Fabric) FailBP(bp int) []FlowID {
	return f.FailLinks(f.linksOfBP(bp))
}

// RepairBP restores every failed link of one BP and re-upgrades
// degraded flows in one pass.
func (f *Fabric) RepairBP(bp int) []FlowID {
	return f.RepairLinks(f.linksOfBP(bp))
}

// LinkFailed reports whether a link is currently marked failed.
func (f *Fabric) LinkFailed(link int) bool { return f.failed.Contains(link) }

// LinkSelected reports whether a link is part of the fabric's
// selected (leased) link set.
func (f *Fabric) LinkSelected(link int) bool { return f.selected.Contains(link) }

// FailedLinks returns the currently failed link IDs, sorted
// (bitset iteration is ascending).
func (f *Fabric) FailedLinks() []int {
	return f.failed.AppendIDs(make([]int, 0, f.failed.Len()))
}

// SelectedLinks returns the fabric's selected link IDs, sorted
// (bitset iteration is ascending).
func (f *Fabric) SelectedLinks() []int {
	return f.selected.AppendIDs(make([]int, 0, f.selected.Len()))
}

// NumSelectedLinks returns how many links the fabric has selected.
func (f *Fabric) NumSelectedLinks() int { return f.selected.Len() }

// rerouteSlots releases and re-places the given flows in descending
// class-weight order (ties broken by admission order). It returns the
// IDs of all re-placed flows (their path, allocation, or both may
// have changed), in ascending ID order.
func (f *Fabric) rerouteSlots(victims []int32) []FlowID {
	f.victimBuf = victims[:0]
	if len(victims) == 0 {
		return nil
	}
	t := &f.tab
	sort.Slice(victims, func(i, j int) bool {
		wi := t.classes[t.classID[victims[i]]].Weight
		wj := t.classes[t.classID[victims[j]]].Weight
		if wi != wj {
			return wi > wj
		}
		return t.seq[victims[i]] < t.seq[victims[j]]
	})
	// The failed links the victims cross. Nothing reads their sums while
	// the victims leave them — a mask refuses a failed link on its Avoid
	// bit before reading its residual, and no new path crosses one — and
	// a sum over fewer allocations ≥ 0 never exceeds the peak already
	// sampled. So each is resummed once, after the last victim has left,
	// not once per victim.
	mark := f.nextMark()
	failed := f.touchedBuf[:0]
	for _, s := range victims {
		for _, l := range t.path(s) {
			if f.linkMark[l] != mark && f.failed.Contains(int(l)) {
				f.linkMark[l] = mark
				failed = append(failed, l)
			}
		}
	}
	changed := make([]FlowID, 0, len(victims))
	for _, s := range victims {
		changed = append(changed, t.id(s))
		f.unplace(s)
		f.setAlloc(s, 0)
		t.latency[s] = 0
		se := f.endpoints[t.src[s]]
		de := f.endpoints[t.dst[s]]
		if se.Router == de.Router {
			f.setAlloc(s, t.demand[s])
			continue
		}
		start, alloc, lat, reason := f.reserve(se.Router, de.Router, t.demand[s])
		if reason != "" {
			continue
		}
		f.commit(s, start, alloc, lat)
		// Re-placed flows keep their seq, so they may land mid-list:
		// book with a full resum, not addUsed's tail increment.
		for _, l := range t.path(s) {
			f.resum(int(l))
		}
	}
	for _, l := range failed {
		f.resum(int(l))
	}
	f.touchedBuf = failed[:0]
	if f.obs != nil {
		var full, degraded, dropped int
		for _, s := range victims {
			switch {
			case t.alloc[s] >= t.demand[s]-1e-9:
				full++
			case t.alloc[s] > 1e-9:
				degraded++
			default:
				dropped++
			}
		}
		f.obs.Add("netsim.reroutes.flows", int64(len(victims)))
		f.obs.Add("netsim.reroutes.full", int64(full))
		f.obs.Add("netsim.reroutes.degraded", int64(degraded))
		f.obs.Add("netsim.reroutes.dropped", int64(dropped))
	}
	t.compactArena()
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	return changed
}

// Tick advances simulated time, accumulating transferred volume:
// allocated Gbps × seconds / 8 = GB. Invalid durations are an error,
// never a panic — a long-running simulation must survive bad input.
func (f *Fabric) Tick(seconds float64) error {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return fmt.Errorf("netsim: invalid tick duration %v", seconds)
	}
	t := &f.tab
	t.rangeLive(func(s int32) bool {
		t.transferred[s] += t.alloc[s] * seconds / 8
		return true
	})
	return nil
}

// UsageByEndpoint returns each endpoint's total transferred GB,
// counting a flow's volume against both its source and destination
// (both sides' providers carry it, matching the paper's "paying for
// all traffic carried from and to them").
func (f *Fabric) UsageByEndpoint() map[EndpointID]float64 {
	// Admission order: the per-endpoint totals are float
	// accumulations, and any other order would shift them at ULP
	// scale run to run.
	t := &f.tab
	out := make(map[EndpointID]float64, len(f.endpoints))
	t.rangeLive(func(s int32) bool {
		out[t.src[s]] += t.transferred[s]
		out[t.dst[s]] += t.transferred[s]
		return true
	})
	return out
}

// LinkUtil is one link's utilization. Lists of it are in ascending
// link order, so their JSON encoding orders numerically.
type LinkUtil struct {
	Link        int     `json:"link"`
	Utilization float64 `json:"utilization"`
}

// Utilization returns used/capacity for every selected link with
// non-zero use, in ascending link order. The slice is exactly as long
// as it needs to be (pocd publishes one per op, and most selected
// links may carry nothing): a first pass counts the used links. With
// none it is empty, not nil.
func (f *Fabric) Utilization() []LinkUtil {
	n := 0
	f.selected.Iterate(func(id int) {
		if f.net.Links[id].Capacity-f.resid[id] > 1e-9 {
			n++
		}
	})
	out := make([]LinkUtil, 0, n)
	f.selected.Iterate(func(id int) {
		cap := f.net.Links[id].Capacity
		used := cap - f.resid[id]
		if used > 1e-9 {
			out = append(out, LinkUtil{Link: id, Utilization: used / cap})
		}
	})
	return out
}
