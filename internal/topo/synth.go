package topo

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/public-option/poc/internal/fnv64"
)

// Continental-scale synthetic instances. The zoo generator (zoo.go)
// substitutes for the TopologyZoo corpus at the paper's scale —
// hundreds of logical links. Benchmarking the winner determination's
// scaling behaviour (pocbench -wd) needs instances an order of
// magnitude larger with a controllable regional structure, which the
// corpus pipeline cannot provide. GenerateSynth builds a POCNetwork
// directly: R regional rings with chords, several BPs per region, an exact
// total link count, and a configurable number of inter-region border
// links. Border = 0 yields a border-separable instance — the
// engagement condition of the regional decomposition (provision
// package) — while Border > 0 exercises its connected fallback.
//
// Demand is hub-sparse by construction: each region routes a few
// demand pairs anchored at hub routers. A gravity model over ~10³
// routers would produce ~10⁶ pairs, which no routing pass at this
// scale can absorb; hub-sparsity keeps the demand list linear in the
// region count while still loading every region. All randomness is
// seeded, so equal configs generate byte-identical instances.

// SynthConfig sizes a synthetic continental instance.
type SynthConfig struct {
	Seed    int64
	Regions int // regional rings
	Routers int // total routers, split evenly across regions
	Links   int // exact total logical link count (incl. Border)
	Border  int // inter-region links; 0 = border-separable
	// BPsPerRegion splits each region's links round-robin across this
	// many BPs. Auctions compute Clarke pivots by withdrawing one BP
	// at a time, so a region must stay acceptable with any 1/k of its
	// links gone — one BP per region would make every pivot undefined.
	BPsPerRegion int
	Hubs         int // demand hubs per region
	Pairs        int // demand pairs per region
	Gbps         float64
}

// DefaultSynthConfig returns a mid-size instance (600 links at 4 links per router, 8
// disconnected regions).
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Seed: 1, Regions: 8, Routers: 150, Links: 600, BPsPerRegion: 4, Hubs: 2, Pairs: 10, Gbps: 6}
}

// SynthDemand is one demand pair (router indices).
type SynthDemand struct {
	A, B int
	Gbps float64
}

// Synth is a generated instance plus its regional structure.
type Synth struct {
	P *POCNetwork
	// Region maps router index -> region.
	Region []int
	// Border lists the inter-region link IDs (empty when Config.Border
	// is 0).
	Border []int
	// Demand is the hub-sparse traffic list; every pair is
	// intra-region, so with Border = 0 the instance satisfies the
	// decomposition's separability certificate on the full link set.
	Demand []SynthDemand
}

// Fingerprint hashes the instance (links, coordinates, demand) so
// determinism is checkable across processes with one number.
func (s *Synth) Fingerprint() uint64 {
	h := uint64(fnv64.Offset)
	h = fnv64.Mix(h, uint64(len(s.P.Routers)))
	for _, l := range s.P.Links {
		h = l.Mix(h)
	}
	for _, d := range s.Demand {
		h = fnv64.Mix(h, uint64(d.A)<<32|uint64(d.B))
		h = fnv64.Mix(h, math.Float64bits(d.Gbps))
	}
	return h
}

// GenerateSynth builds the instance for cfg. It panics on configs that
// cannot meet the exact link count (fewer links than routers + border,
// regions too small to ring).
func GenerateSynth(cfg SynthConfig) *Synth {
	if cfg.Regions < 1 || cfg.Routers < 3*cfg.Regions {
		panic(fmt.Sprintf("topo: synth needs >=3 routers per region (%d routers, %d regions)", cfg.Routers, cfg.Regions))
	}
	if cfg.Links < cfg.Routers+cfg.Border {
		panic(fmt.Sprintf("topo: synth needs links >= routers+border (%d < %d+%d)", cfg.Links, cfg.Routers, cfg.Border))
	}
	if cfg.Border > 0 && cfg.Regions < 2 {
		panic("topo: border links need >=2 regions")
	}
	bpr := cfg.BPsPerRegion
	if bpr < 1 {
		bpr = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Region sizes: even split, remainder to the first regions.
	sizes := make([]int, cfg.Regions)
	lo := make([]int, cfg.Regions)
	for r := range sizes {
		sizes[r] = cfg.Routers / cfg.Regions
		if r < cfg.Routers%cfg.Regions {
			sizes[r]++
		}
		if r > 0 {
			lo[r] = lo[r-1] + sizes[r-1]
		}
	}

	// Cities: jittered around region centers laid out on a lat/lon
	// grid wide enough that regions never overlap.
	w := &World{Cities: make([]City, cfg.Routers)}
	region := make([]int, cfg.Routers)
	cols := int(math.Ceil(math.Sqrt(float64(cfg.Regions))))
	for r := 0; r < cfg.Regions; r++ {
		clat := -40 + 80*float64(r/cols)/math.Max(1, float64((cfg.Regions+cols-1)/cols))
		clon := -160 + 320*float64(r%cols)/float64(cols)
		for i := 0; i < sizes[r]; i++ {
			idx := lo[r] + i
			region[idx] = r
			w.Cities[idx] = City{
				Name:       fmt.Sprintf("synth-%d-%d", r, i),
				Lat:        clat + rng.Float64()*6 - 3,
				Lon:        clon + rng.Float64()*6 - 3,
				Population: 0.5 + rng.Float64()*8,
			}
		}
	}

	p := &POCNetwork{World: w, Routers: make([]int, cfg.Routers)}
	for i := range p.Routers {
		p.Routers[i] = i
	}
	for r := 0; r < cfg.Regions; r++ {
		for b := 0; b < bpr; b++ {
			bp := BP{Name: fmt.Sprintf("synth-r%d-%c", r, 'a'+b), CostMult: 1}
			for i := 0; i < sizes[r]; i++ {
				bp.Sites = append(bp.Sites, lo[r]+i)
			}
			p.BPs = append(p.BPs, bp)
		}
	}

	caps := []float64{40, 100, 400}
	linkCnt := make([]int, cfg.Regions)
	addLink := func(r, a, b int) {
		bp := r*bpr + linkCnt[r]%bpr
		linkCnt[r]++
		p.Links = append(p.Links, LogicalLink{
			ID: len(p.Links), BP: bp, A: a, B: b,
			Capacity:   caps[rng.Intn(len(caps))],
			DistanceKm: w.Distance(a, b),
		})
	}

	// Per region: the ring, then chords — first the deterministic
	// i→i+2 and i→i+3 rings (dense enough that the region survives any
	// single-BP withdrawal), then seeded extras up to the exact intra
	// budget. Counts are exact by construction.
	chords := cfg.Links - cfg.Border - cfg.Routers
	for r := 0; r < cfg.Regions; r++ {
		n := sizes[r]
		for i := 0; i < n; i++ {
			addLink(r, lo[r]+i, lo[r]+(i+1)%n)
		}
		quota := chords/cfg.Regions + boolToInt(r < chords%cfg.Regions)
		for k := 0; k < quota; k++ {
			var a, b int
			switch {
			case k < n:
				a, b = k, (k+2)%n
			case k < 2*n:
				a, b = k-n, (k-n+3)%n
			default:
				a, b = rng.Intn(n), rng.Intn(n)
			}
			if a == b {
				b = (a + 1) % n
			}
			addLink(r, lo[r]+a, lo[r]+b)
		}
	}
	var border []int
	for j := 0; j < cfg.Border; j++ {
		r := j % cfg.Regions
		next := (r + 1) % cfg.Regions
		border = append(border, len(p.Links))
		addLink(r, lo[r], lo[next])
	}

	// Hub-sparse demand: each region's pairs run hub -> seeded
	// non-hub router, strictly intra-region.
	hubs := cfg.Hubs
	if hubs < 1 {
		hubs = 1
	}
	var demand []SynthDemand
	for r := 0; r < cfg.Regions; r++ {
		n := sizes[r]
		h := hubs
		if h >= n {
			h = n - 1
		}
		for i := 0; i < cfg.Pairs; i++ {
			src := lo[r] + i%h
			dst := lo[r] + h + rng.Intn(n-h)
			demand = append(demand, SynthDemand{
				A: src, B: dst, Gbps: cfg.Gbps * (0.5 + rng.Float64()),
			})
		}
	}

	return &Synth{P: p, Region: region, Border: border, Demand: demand}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
