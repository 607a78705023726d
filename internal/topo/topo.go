// Package topo provides the network-topology substrate of the POC
// reproduction: a geographic node/link model, a parser for
// TopologyZoo-style GML files, a deterministic synthetic "zoo"
// generator (the substitution for the real TopologyZoo dataset — see
// DESIGN.md), bandwidth-provider (BP) formation by merging networks,
// and POC router placement at multi-BP colocation sites.
//
// The paper (§3.3) builds its auction input as follows: take the
// TopologyZoo networks, filter small ones, combine networks into 20
// BPs, place POC routers "at points where there were four or more BPs
// closely colocated", and treat BP-offered point-to-point connections
// between POC routers as logical links (which may traverse several
// physical links). This package implements exactly that pipeline.
package topo

import (
	"fmt"
	"math"
	"sort"
)

// City is a geographic location at which networks have presence.
type City struct {
	Name       string
	Lat, Lon   float64 // degrees
	Population float64 // millions; drives the gravity traffic model
}

// Network is one topology-zoo network: a set of point-of-presence
// sites (city indices into the owning World) and physical links
// between them.
type Network struct {
	Name  string
	Sites []int // indices into World.Cities
	Links []PhysLink
}

// PhysLink is a physical link inside one network, between two of the
// network's sites, with a capacity in Gbps.
type PhysLink struct {
	A, B     int // indices into World.Cities
	Capacity float64
}

// World holds the city universe shared by all networks.
type World struct {
	Cities []City
}

// CityIndex returns the index of the named city or -1.
func (w *World) CityIndex(name string) int {
	for i, c := range w.Cities {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// earthRadiusKm is the mean Earth radius used by Distance.
const earthRadiusKm = 6371.0

// Distance returns the great-circle distance in km between cities i
// and j using the haversine formula.
func (w *World) Distance(i, j int) float64 {
	a, b := w.Cities[i], w.Cities[j]
	return Haversine(a.Lat, a.Lon, b.Lat, b.Lon)
}

// Haversine returns the great-circle distance in km between two
// lat/lon points in degrees.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const d = math.Pi / 180
	phi1, phi2 := lat1*d, lat2*d
	dphi := (lat2 - lat1) * d
	dlam := (lon2 - lon1) * d
	s := math.Sin(dphi/2)*math.Sin(dphi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dlam/2)*math.Sin(dlam/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

// BP is a bandwidth provider: a merger of one or more zoo networks.
// Its Sites are the union of member sites; its Links the union of
// member links.
type BP struct {
	Name     string
	Members  []string // names of merged networks
	Sites    []int
	Links    []PhysLink
	CostMult float64 // per-BP lease cost multiplier (provider efficiency)
}

// MergeNetworks combines the given networks into a single BP,
// deduplicating sites and keeping all links.
func MergeNetworks(name string, nets []Network, costMult float64) BP {
	bp := BP{Name: name, CostMult: costMult}
	seen := map[int]bool{}
	for _, n := range nets {
		bp.Members = append(bp.Members, n.Name)
		for _, s := range n.Sites {
			if !seen[s] {
				seen[s] = true
				bp.Sites = append(bp.Sites, s)
			}
		}
		bp.Links = append(bp.Links, n.Links...)
	}
	sort.Ints(bp.Sites)
	return bp
}

// FormBPs partitions networks into k BPs of varying size. Networks
// are assigned over a size-skewed schedule so that the largest BP
// ends up with a few times the networks of the smallest, matching the
// paper's observation that BPs contributed "from roughly 2% to
// roughly 12% of the logical links". (Logical-link count grows
// roughly quadratically in a BP's footprint, so a mild network-count
// skew yields the paper's ~6x link-share spread.)
func FormBPs(nets []Network, k int) []BP {
	if k <= 0 {
		return nil
	}
	// Weight BP i by (i+weightBase): with weightBase 8, BP k-1 gets
	// about 1.8x BP 0's networks.
	const weightBase = 24
	weights := make([]int, k)
	total := 0
	for i := range weights {
		weights[i] = i + weightBase
		total += weights[i]
	}
	// Deal networks into buckets proportionally to weights, preserving
	// input order for determinism.
	buckets := make([][]Network, k)
	cursor := 0
	remaining := append([]Network(nil), nets...)
	for len(remaining) > 0 {
		w := weights[cursor%k]
		take := w * len(nets) / total
		if take < 1 {
			take = 1
		}
		if take > len(remaining) {
			take = len(remaining)
		}
		buckets[cursor%k] = append(buckets[cursor%k], remaining[:take]...)
		remaining = remaining[take:]
		cursor++
	}
	bps := make([]BP, 0, k)
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		// Cost multipliers vary deterministically in [0.85, 1.15].
		mult := 0.85 + 0.3*float64(i)/float64(k-1+1)
		bps = append(bps, MergeNetworks(fmt.Sprintf("BP%02d", i+1), b, mult))
	}
	return bps
}

// ColocationSites returns the city indices where at least minBPs of
// the given BPs have presence, sorted ascending. The paper places POC
// routers at points "where there were four or more BPs closely
// colocated"; pass minBPs=4 for that behaviour.
func ColocationSites(bps []BP, minBPs int) []int {
	count := map[int]int{}
	for _, bp := range bps {
		for _, s := range bp.Sites {
			count[s]++
		}
	}
	var sites []int
	for s, c := range count {
		if c >= minBPs {
			sites = append(sites, s)
		}
	}
	sort.Ints(sites)
	return sites
}
