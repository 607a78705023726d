// Package interdomain models the status quo the paper argues against
// (§1.1, §2.1): an Internet of autonomous systems glued together by
// bilateral customer–provider and peering relationships, with
// BGP-style valley-free routing. It is the baseline system for the
// POC comparison: under the status quo a stub network reaches the
// rest of the Internet only through transit providers it pays, and
// the reachable paths are limited by the transitive export rules
// (§2.1: "a domain's policy choices ... are limited to the options
// exported by its neighbors").
//
// Routing follows the Gao–Rexford conditions:
//
//   - routes learned from customers may be exported to everyone;
//   - routes learned from peers or providers may be exported only to
//     customers;
//
// which makes every usable path "valley-free": zero or more
// customer→provider hops, at most one peer hop, then zero or more
// provider→customer hops. Route preference is customer > peer >
// provider, then shortest AS-path.
package interdomain

import (
	"fmt"
	"sort"
)

// ASN identifies an autonomous system.
type ASN int

// Relationship classifies one directed inter-AS edge.
type Relationship int

const (
	// CustomerOf: the edge's owner pays the neighbor for transit.
	CustomerOf Relationship = iota
	// ProviderOf: the neighbor pays the owner.
	ProviderOf
	// PeerOf: settlement-free exchange of customer routes.
	PeerOf
)

func (r Relationship) String() string {
	switch r {
	case CustomerOf:
		return "customer-of"
	case ProviderOf:
		return "provider-of"
	case PeerOf:
		return "peer-of"
	default:
		return fmt.Sprintf("Relationship(%d)", int(r))
	}
}

// Topology is the AS-level graph.
type Topology struct {
	neighbors map[ASN]map[ASN]Relationship
}

// NewTopology returns an empty AS graph.
func NewTopology() *Topology {
	return &Topology{neighbors: map[ASN]map[ASN]Relationship{}}
}

// AddCustomerProvider records that customer buys transit from
// provider.
func (t *Topology) AddCustomerProvider(customer, provider ASN) error {
	if customer == provider {
		return fmt.Errorf("interdomain: AS %d cannot be its own provider", customer)
	}
	if rel, ok := t.rel(customer, provider); ok {
		return fmt.Errorf("interdomain: AS %d and %d already related (%v)", customer, provider, rel)
	}
	t.set(customer, provider, CustomerOf)
	t.set(provider, customer, ProviderOf)
	return nil
}

// AddPeering records a settlement-free peering.
func (t *Topology) AddPeering(a, b ASN) error {
	if a == b {
		return fmt.Errorf("interdomain: AS %d cannot peer with itself", a)
	}
	if rel, ok := t.rel(a, b); ok {
		return fmt.Errorf("interdomain: AS %d and %d already related (%v)", a, b, rel)
	}
	t.set(a, b, PeerOf)
	t.set(b, a, PeerOf)
	return nil
}

func (t *Topology) set(from, to ASN, rel Relationship) {
	if t.neighbors[from] == nil {
		t.neighbors[from] = map[ASN]Relationship{}
	}
	t.neighbors[from][to] = rel
}

func (t *Topology) rel(from, to ASN) (Relationship, bool) {
	rel, ok := t.neighbors[from][to]
	return rel, ok
}

// ASes returns every AS mentioned in the topology, sorted.
func (t *Topology) ASes() []ASN {
	var out []ASN
	for a := range t.neighbors {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Route is a valley-free path from a source AS to a destination AS.
type Route struct {
	Path []ASN
	// FirstHop classifies the route the way BGP preference does: how
	// the source learned it (customer route, peer route or provider
	// route).
	FirstHop Relationship
}

// phase encodes the valley-free automaton state.
type phase int

const (
	phaseUp   phase = iota // still climbing customer→provider edges
	phasePeer              // crossed the single peer edge
	phaseDown              // descending provider→customer edges
)

// BestRoute computes src's most-preferred valley-free route to dst:
// customer routes over peer routes over provider routes, then
// shortest AS path, then lowest next-hop ASN (deterministic
// tie-break). It returns ok=false when no valley-free path exists —
// the fragmentation risk §3.4 worries about.
func (t *Topology) BestRoute(src, dst ASN) (Route, bool) {
	if src == dst {
		return Route{Path: []ASN{src}}, true
	}
	type state struct {
		as ASN
		ph phase
	}
	// BFS per starting relationship class, in preference order. For
	// equal class we want the shortest path; BFS gives that.
	for _, class := range []Relationship{ProviderOf, PeerOf, CustomerOf} {
		// class is the relationship of src TO its first hop:
		// ProviderOf means the first hop is src's customer (customer
		// route), PeerOf a peer route, CustomerOf a provider route.
		start := map[Relationship]phase{
			ProviderOf: phaseDown, // into a customer: already descending
			PeerOf:     phasePeer,
			CustomerOf: phaseUp,
		}[class]
		prev := map[state]state{}
		var queue []state
		seen := map[state]bool{}
		var firstHops []ASN
		for n, rel := range t.neighbors[src] {
			if rel == class {
				firstHops = append(firstHops, n)
			}
		}
		sort.Slice(firstHops, func(i, j int) bool { return firstHops[i] < firstHops[j] })
		for _, n := range firstHops {
			st := state{n, start}
			if !seen[st] {
				seen[st] = true
				prev[st] = state{src, -1}
				queue = append(queue, st)
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur.as == dst {
				// Reconstruct.
				var rev []ASN
				for st := cur; st.as != src; st = prev[st] {
					rev = append(rev, st.as)
				}
				path := make([]ASN, 0, len(rev)+1)
				path = append(path, src)
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return Route{Path: path, FirstHop: class}, true
			}
			// Expand according to the valley-free automaton. The next
			// edge's relationship is cur.as's relationship to the next
			// AS.
			var nexts []state
			for n, rel := range t.neighbors[cur.as] {
				switch cur.ph {
				case phaseUp:
					// May keep climbing, cross one peer edge, or turn
					// down.
					switch rel {
					case CustomerOf:
						nexts = append(nexts, state{n, phaseUp})
					case PeerOf:
						nexts = append(nexts, state{n, phasePeer})
					case ProviderOf:
						nexts = append(nexts, state{n, phaseDown})
					}
				case phasePeer, phaseDown:
					// Only downhill (provider→customer) from here.
					if rel == ProviderOf {
						nexts = append(nexts, state{n, phaseDown})
					}
				}
			}
			sort.Slice(nexts, func(i, j int) bool {
				if nexts[i].as != nexts[j].as {
					return nexts[i].as < nexts[j].as
				}
				return nexts[i].ph < nexts[j].ph
			})
			for _, nx := range nexts {
				if !seen[nx] {
					seen[nx] = true
					prev[nx] = cur
					queue = append(queue, nx)
				}
			}
		}
	}
	return Route{}, false
}

// Reachable returns the set of ASes src can reach valley-free,
// excluding itself.
func (t *Topology) Reachable(src ASN) []ASN {
	var out []ASN
	for _, dst := range t.ASes() {
		if dst == src {
			continue
		}
		if _, ok := t.BestRoute(src, dst); ok {
			out = append(out, dst)
		}
	}
	return out
}

// TransitBill computes what src owes its providers to reach every
// destination, given a per-destination traffic volume and a
// per-provider price per unit. Only provider routes (first hop =
// CustomerOf) cost money; customer and peer routes are revenue/free —
// the §2.1 economics of the status quo.
func (t *Topology) TransitBill(src ASN, volume map[ASN]float64, pricePerUnit float64) (float64, error) {
	// Destination-ASN order: the bill is a float accumulation, and map
	// iteration would drift it at ULP scale run to run.
	dsts := make([]int, 0, len(volume))
	for dst := range volume {
		dsts = append(dsts, int(dst))
	}
	sort.Ints(dsts)
	total := 0.0
	for _, d := range dsts {
		dst := ASN(d)
		v := volume[dst]
		if v < 0 {
			return 0, fmt.Errorf("interdomain: negative volume to AS %d", dst)
		}
		r, ok := t.BestRoute(src, dst)
		if !ok {
			return 0, fmt.Errorf("interdomain: AS %d cannot reach AS %d", src, dst)
		}
		if r.FirstHop == CustomerOf {
			total += v * pricePerUnit
		}
	}
	return total, nil
}
