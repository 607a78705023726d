package netsim

import (
	"fmt"
	"math"
	"sort"

	"github.com/public-option/poc/internal/graph"
)

// §3.1: "the POC could support multicast and anycast delivery
// mechanisms, and any other standardized protocols that the IETF
// adopts." This file implements both on the fabric:
//
//   - Multicast: one source delivers to many receivers over a shared
//     tree; each tree link carries the stream once regardless of the
//     number of downstream receivers.
//   - Anycast: a flow is delivered to the cheapest-to-reach member of
//     a service group (used by the edge/CDN services of §3.1–3.2).

// MulticastID identifies an admitted multicast group.
type MulticastID int

// Multicast is one admitted multicast distribution.
type Multicast struct {
	ID        MulticastID
	Src       EndpointID
	Receivers []EndpointID
	Gbps      float64
	// TreeLinks are the logical links of the distribution tree, each
	// reserved once.
	TreeLinks []int
	// Reached lists the receivers in tree-connection order.
	Reached []EndpointID
}

// StartMulticast admits a multicast distribution from src to the
// given receivers at the given rate. The tree is grown greedily
// (cheapest-path-to-tree, a deterministic Takahashi–Matsuyama
// heuristic for the Steiner tree): receivers are connected in
// ascending order of their cheapest attachment cost, and every tree
// link reserves the stream rate exactly once.
//
// Admission is all-or-nothing per receiver: receivers that cannot be
// reached with capacity cause an error listing them, and nothing is
// reserved.
func (f *Fabric) StartMulticast(src EndpointID, receivers []EndpointID, gbps float64) (*Multicast, error) {
	se, err := f.Endpoint(src)
	if err != nil {
		return nil, err
	}
	if gbps <= 0 || math.IsNaN(gbps) || math.IsInf(gbps, 0) {
		return nil, fmt.Errorf("netsim: invalid multicast rate %v", gbps)
	}
	if len(receivers) == 0 {
		return nil, fmt.Errorf("netsim: multicast needs at least one receiver")
	}
	seen := map[EndpointID]bool{src: true}
	for _, r := range receivers {
		if _, err := f.Endpoint(r); err != nil {
			return nil, err
		}
		if seen[r] {
			return nil, fmt.Errorf("netsim: duplicate receiver %d", r)
		}
		seen[r] = true
	}

	// Tree state: routers already on the tree, links reserved so far.
	inTree := make([]bool, f.g.NumNodes())
	inTree[f.endpoints[src].Router] = true
	treeLinks := map[int]bool{}
	// Every search admits the non-failed links with residual >= gbps.
	// Nothing is reserved until the whole tree is known, so residuals
	// hold still meanwhile and a link already on the tree (which
	// carries the stream once; joining it is free) still passes the
	// test it passed when it joined.
	usable := f.usable(gbps)
	if f.tr == nil {
		f.tr = graph.NewTreeRouter(f.g)
	}

	remaining := append([]EndpointID(nil), receivers...)
	var order []EndpointID // connection order, for determinism
	var treeNodes []graph.NodeID
	for len(remaining) > 0 {
		treeNodes = treeNodes[:0]
		for node, on := range inTree {
			if on {
				treeNodes = append(treeNodes, graph.NodeID(node))
			}
		}
		// Pick the remaining receiver with the cheapest path to the
		// current tree.
		bestIdx, bestCost := -1, math.Inf(1)
		var bestPath graph.Path
		for i, r := range remaining {
			dst := graph.NodeID(f.endpoints[r].Router)
			if inTree[dst] {
				// Already reachable for free.
				bestIdx, bestCost, bestPath = i, 0, graph.Path{}
				break
			}
			// Cheapest path from any tree node: search from the
			// receiver over reversed edges is equivalent because the
			// fabric's links are bidirectional; use the receiver as
			// source and pick the nearest tree node from a Dijkstra
			// that stops once every tree node has settled. Tree nodes
			// are scanned in ascending router order, so an equidistant
			// tie goes to the lowest ID.
			tree := f.tr.Tree(dst, usable, treeNodes...)
			for _, node := range treeNodes {
				if !tree.Reachable(node) {
					continue
				}
				if tree.Dist[node] < bestCost {
					p := tree.PathTo(f.g, node)
					bestIdx, bestCost, bestPath = i, tree.Dist[node], p
				}
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("netsim: multicast cannot reach %d of %d receivers at %.1f Gbps",
				len(remaining), len(receivers), gbps)
		}
		for _, eid := range bestPath.Edges {
			l := int(f.linkFor[eid])
			if !treeLinks[l] {
				treeLinks[l] = true
			}
		}
		nodes := bestPath.Nodes(f.g)
		for _, n := range nodes {
			inTree[n] = true
		}
		order = append(order, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}

	// Reserve each tree link once.
	links := make([]int, 0, len(treeLinks))
	for l := range treeLinks {
		links = append(links, l)
	}
	sort.Ints(links)
	for _, l := range links {
		if f.resid[l] < gbps {
			return nil, fmt.Errorf("netsim: multicast capacity raced on link %d", l)
		}
	}

	m := &Multicast{
		ID:        MulticastID(f.nextMcast),
		Src:       src,
		Receivers: append([]EndpointID(nil), receivers...),
		Gbps:      gbps,
		TreeLinks: links,
		Reached:   order,
	}
	f.nextMcast++
	if f.mcasts == nil {
		f.mcasts = map[MulticastID]*Multicast{}
	}
	f.mcasts[m.ID] = m
	f.indexMcast(m)
	f.recompute(links)
	_ = se
	return m, nil
}

// StopMulticast releases a multicast distribution's reservations.
func (f *Fabric) StopMulticast(id MulticastID) error {
	m, ok := f.mcasts[id]
	if !ok {
		return fmt.Errorf("netsim: unknown multicast %d", id)
	}
	f.unindexMcast(m)
	delete(f.mcasts, id)
	f.recompute(m.TreeLinks)
	return nil
}

// Multicasts returns snapshots of active multicast groups in ID
// order.
func (f *Fabric) Multicasts() []Multicast {
	ids := make([]int, 0, len(f.mcasts))
	for id := range f.mcasts {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]Multicast, 0, len(ids))
	for _, id := range ids {
		out = append(out, *f.mcasts[MulticastID(id)])
	}
	return out
}

// UnicastEquivalentGbps returns the bandwidth separate unicast flows
// to every receiver would have reserved, for comparing against the
// tree's actual reservation (the multicast saving).
func (f *Fabric) UnicastEquivalentGbps(m *Multicast) float64 {
	total := 0.0
	src := graph.NodeID(f.endpoints[m.Src].Router)
	for _, r := range m.Receivers {
		dst := graph.NodeID(f.endpoints[r].Router)
		if src == dst {
			continue
		}
		p := f.pr.Path(src, dst, nil)
		total += float64(len(p.Edges)) * m.Gbps
	}
	return total
}

// TreeGbps returns the bandwidth the tree actually reserves.
func (m *Multicast) TreeGbps() float64 {
	return float64(len(m.TreeLinks)) * m.Gbps
}

// RegisterAnycast creates or extends an anycast group: a named set of
// endpoints providing the same service, whose flows are delivered to
// the cheapest member. Groups are open: any endpoint may be registered
// (the §3.4 conditions forbid offering this only to select CSPs).
func (f *Fabric) RegisterAnycast(name string, members ...EndpointID) error {
	if name == "" {
		return fmt.Errorf("netsim: anycast group needs a name")
	}
	for _, m := range members {
		if _, err := f.Endpoint(m); err != nil {
			return err
		}
	}
	if f.anycast == nil {
		f.anycast = map[string][]EndpointID{}
	}
	existing := f.anycast[name]
	for _, m := range members {
		dup := false
		for _, e := range existing {
			if e == m {
				dup = true
				break
			}
		}
		if !dup {
			existing = append(existing, m)
		}
	}
	f.anycast[name] = existing
	return nil
}

// StartAnycastFlow admits a flow from src to the nearest (cheapest
// usable path) member of the named anycast group and returns the flow
// plus the member chosen.
func (f *Fabric) StartAnycastFlow(src EndpointID, group string, gbps float64, class Class) (*Flow, EndpointID, error) {
	members := f.anycast[group]
	if len(members) == 0 {
		return nil, 0, fmt.Errorf("netsim: unknown or empty anycast group %q", group)
	}
	se, err := f.Endpoint(src)
	if err != nil {
		return nil, 0, err
	}
	bestMember := EndpointID(-1)
	bestCost := math.Inf(1)
	for _, m := range members {
		me := f.endpoints[m]
		if me.Router == se.Router {
			bestMember, bestCost = m, 0
			break
		}
		p := f.pr.Path(graph.NodeID(se.Router), graph.NodeID(me.Router), f.usable(1e-9))
		if p.Cost < bestCost {
			bestMember, bestCost = m, p.Cost
		}
	}
	if bestMember < 0 || math.IsInf(bestCost, 1) {
		return nil, 0, fmt.Errorf("netsim: no reachable member in anycast group %q", group)
	}
	fl, err := f.StartFlow(src, bestMember, gbps, class)
	if err != nil {
		return nil, 0, err
	}
	return fl, bestMember, nil
}
