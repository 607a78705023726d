package topo

import (
	"fmt"
	"math"
	"sort"

	"github.com/public-option/poc/internal/fnv64"
	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/linkset"
)

// LogicalLink is a point-to-point connection between two POC routers
// offered by a single BP. It may traverse several physical links of
// the BP's network; Capacity is the bottleneck along the BP-internal
// path and DistanceKm the physical path length, which drives both the
// routing cost and the lease price.
type LogicalLink struct {
	ID         int
	BP         int // index into the owning POCNetwork.BPs
	A, B       int // indices into POCNetwork.Routers (not city indices)
	Capacity   float64
	DistanceKm float64
}

// VirtualBP is the BP index used for virtual links provided by
// external ISPs under long-term contract (§3.3). Virtual links belong
// to no bandwidth provider and never receive auction payments.
const VirtualBP = -1

// Mix folds the link into an FNV-1a state: identity, owner and
// endpoints packed into one word (ID<<32 | BP<<16 | A<<8 | B), then
// capacity and distance. The packed slots hold an endpoint below 256
// and an owner in [VirtualBP, 0xffff); a link whose fields overflow
// them also mixes its full endpoints and owner, so networks that
// differ only there fingerprint differently, while every link that
// fits keeps the single-word bytes persisted cache keys were written
// with.
func (l LogicalLink) Mix(h uint64) uint64 {
	h = fnv64.Mix(h, uint64(l.ID)<<32|uint64(l.BP&0xffff)<<16|uint64(l.A&0xff)<<8|uint64(l.B&0xff))
	if l.A&0xff != l.A || l.B&0xff != l.B || l.BP < VirtualBP || l.BP >= 0xffff {
		h = fnv64.Mix(h, uint64(uint32(l.A))<<32|uint64(uint32(l.B)))
		h = fnv64.Mix(h, uint64(l.BP))
	}
	h = fnv64.Mix(h, math.Float64bits(l.Capacity))
	return fnv64.Mix(h, math.Float64bits(l.DistanceKm))
}

// POCNetwork is the auction input: the set of POC routers (placed at
// multi-BP colocation sites) and every logical link the BPs can offer
// between them.
type POCNetwork struct {
	World   *World
	BPs     []BP
	Routers []int // city indices hosting POC routers
	Links   []LogicalLink
}

// RouterIndex maps a city index to its POC-router index, or -1.
func (p *POCNetwork) RouterIndex(city int) int {
	for i, r := range p.Routers {
		if r == city {
			return i
		}
	}
	return -1
}

// LinksOfBP returns the logical-link IDs offered by BP b.
func (p *POCNetwork) LinksOfBP(b int) []int {
	var out []int
	for _, l := range p.Links {
		if l.BP == b {
			out = append(out, l.ID)
		}
	}
	return out
}

// BPShare returns, for each BP, its fraction of the BP-offered
// logical links (virtual links excluded) — the paper reports shares
// between roughly 2% and 12%.
func (p *POCNetwork) BPShare() []float64 {
	counts := make([]float64, len(p.BPs))
	total := 0.0
	for _, l := range p.Links {
		if l.BP == VirtualBP {
			continue
		}
		counts[l.BP]++
		total++
	}
	for i := range counts {
		counts[i] /= total
	}
	return counts
}

// AddVirtualLink appends a virtual link between router indices a and
// b with the given capacity, using the great-circle distance between
// the routers' cities, and returns its logical link ID.
func (p *POCNetwork) AddVirtualLink(a, b int, capacity float64) int {
	if a == b || a < 0 || b < 0 || a >= len(p.Routers) || b >= len(p.Routers) {
		panic(fmt.Sprintf("topo: invalid virtual link %d-%d", a, b))
	}
	if capacity <= 0 {
		panic("topo: virtual link needs positive capacity")
	}
	id := len(p.Links)
	p.Links = append(p.Links, LogicalLink{
		ID: id, BP: VirtualBP, A: a, B: b,
		Capacity:   capacity,
		DistanceKm: p.World.Distance(p.Routers[a], p.Routers[b]),
	})
	return id
}

// BuildPOCNetwork runs the paper's pipeline: form BPs from the zoo
// networks, place POC routers at sites where at least minColo BPs are
// colocated, and extract all logical links each BP can offer between
// router pairs. maxHops bounds the physical path length of a logical
// link (very long intra-BP detours are not commercially offered);
// pass 0 for the default of 2.
func BuildPOCNetwork(w *World, nets []Network, numBPs, minColo, maxHops int) *POCNetwork {
	if maxHops <= 0 {
		maxHops = 2
	}
	bps := FormBPs(nets, numBPs)
	routers := ColocationSites(bps, minColo)
	p := &POCNetwork{World: w, BPs: bps, Routers: routers}

	routerIdx := make(map[int]int, len(routers))
	for i, c := range routers {
		routerIdx[c] = i
	}

	for bi := range bps {
		bp := &bps[bi]
		// Build the BP's physical graph over the world's cities.
		g := graph.New(len(w.Cities))
		for _, l := range bp.Links {
			d := w.Distance(l.A, l.B)
			g.AddBiEdge(graph.NodeID(l.A), graph.NodeID(l.B), d, l.Capacity)
		}
		// For each pair of POC routers present in this BP, offer a
		// logical link if a path of at most maxHops physical links exists.
		var bpRouters []int
		for _, c := range bp.Sites {
			if _, ok := routerIdx[c]; ok {
				bpRouters = append(bpRouters, c)
			}
		}
		sort.Ints(bpRouters)
		targets := make([]graph.NodeID, len(bpRouters))
		for i, c := range bpRouters {
			targets[i] = graph.NodeID(c)
		}
		tr := graph.NewTreeRouter(g)
		for i := 0; i+1 < len(bpRouters); i++ {
			// Only the routers after i are read: the tree stops there.
			tree := tr.Tree(targets[i], nil, targets[i+1:]...)
			for j := i + 1; j < len(bpRouters); j++ {
				dst := graph.NodeID(bpRouters[j])
				if !tree.Reachable(dst) {
					continue
				}
				path := tree.PathTo(g, dst)
				if len(path.Edges) > maxHops {
					continue
				}
				capacity := path.MinCapacity(g)
				if math.IsInf(capacity, 1) || capacity <= 0 {
					continue
				}
				p.Links = append(p.Links, LogicalLink{
					ID:         len(p.Links),
					BP:         bi,
					A:          routerIdx[bpRouters[i]],
					B:          routerIdx[bpRouters[j]],
					Capacity:   capacity,
					DistanceKm: path.Cost,
				})
			}
		}
	}
	return p
}

// RouterLatLon returns the geographic coordinates of a POC router.
// It panics only through the slice bounds check on a bad index; use
// RouterIndex/len(Routers) to validate untrusted input first.
func (p *POCNetwork) RouterLatLon(r int) (lat, lon float64) {
	c := p.World.Cities[p.Routers[r]]
	return c.Lat, c.Lon
}

// LinksNear returns, sorted, the IDs of the logical links with at
// least one endpoint router within radiusKm of the given point — the
// blast set of a geographically correlated failure (a fiber cut, a
// natural disaster at a colocation site). Logical links are modeled
// point-to-point, so a cut near either end severs the whole link.
func (p *POCNetwork) LinksNear(lat, lon, radiusKm float64) []int {
	if radiusKm < 0 || math.IsNaN(radiusKm) || math.IsNaN(lat) || math.IsNaN(lon) {
		return nil
	}
	within := make([]bool, len(p.Routers))
	for r := range p.Routers {
		rl, ro := p.RouterLatLon(r)
		within[r] = Haversine(lat, lon, rl, ro) <= radiusKm
	}
	var out []int
	for _, l := range p.Links {
		if within[l.A] || within[l.B] {
			out = append(out, l.ID)
		}
	}
	return out
}

// Summary returns a one-line description of the POC network scale.
func (p *POCNetwork) Summary() string {
	return fmt.Sprintf("%d BPs, %d POC routers, %d logical links",
		len(p.BPs), len(p.Routers), len(p.Links))
}

// Graph builds a routing graph over the POC routers containing the
// given subset of logical links (nil = all). Each logical link becomes
// a bidirectional edge with its distance as cost. The returned mapping
// is dense, indexed by logical link ID: entry l holds the two directed
// edge IDs created for link l, or {graph.Undefined, graph.Undefined}
// when the link was not included.
func (p *POCNetwork) Graph(include *linkset.Set) (*graph.Graph, [][2]graph.EdgeID) {
	g := graph.New(len(p.Routers))
	edges := make([][2]graph.EdgeID, len(p.Links))
	for i := range edges {
		edges[i] = [2]graph.EdgeID{graph.Undefined, graph.Undefined}
	}
	for _, l := range p.Links {
		if include != nil && !include.Contains(l.ID) {
			continue
		}
		e1, e2 := g.AddBiEdge(graph.NodeID(l.A), graph.NodeID(l.B), l.DistanceKm, l.Capacity)
		edges[l.ID] = [2]graph.EdgeID{e1, e2}
	}
	return g, edges
}
