package auction

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// regionalInstance builds a border-separable auction: two ring+chord
// regions with no links between them, per-BP additive bids priced by
// distance, and demand confined to each region. Instances built from
// the same seed are identical.
func regionalInstance(seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	const nSide, nBPs = 8, 4
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 2*nSide)},
		Routers: make([]int, 2*nSide),
	}
	for i := range p.Routers {
		p.Routers[i] = i
	}
	for i := 0; i < nBPs; i++ {
		p.BPs = append(p.BPs, topo.BP{Name: "bp", CostMult: 1})
	}
	caps := []float64{20, 40, 80}
	add := func(a, b int) {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: len(p.Links) % nBPs, A: a, B: b,
			Capacity:   caps[rng.Intn(len(caps))],
			DistanceKm: 50 + rng.Float64()*450,
		})
	}
	ring := func(lo int) {
		for i := 0; i < nSide; i++ {
			add(lo+i, lo+(i+1)%nSide)
		}
		// Dense chords: the instance must stay acceptable when any single
		// BP withdraws, or the Clarke pivots are undefined.
		for i := 0; i < nSide; i++ {
			add(lo+i, lo+(i+2)%nSide)
			add(lo+i, lo+(i+3)%nSide)
		}
	}
	ring(0)
	ring(nSide)

	tm := traffic.NewMatrix(2 * nSide)
	side := func(lo int) {
		for i := 0; i < 4; i++ {
			a, b := lo+rng.Intn(nSide), lo+rng.Intn(nSide)
			if a != b {
				tm.Set(a, b, tm.At(a, b)+4+rng.Float64()*4)
			}
		}
	}
	side(0)
	side(nSide)

	in := &Instance{Network: p, TM: tm, Constraint: provision.Constraint2, MaxChecks: 40}
	prices := make([]float64, len(p.Links))
	links := make([][]int, nBPs)
	for _, l := range p.Links {
		prices[l.ID] = l.DistanceKm * (0.8 + 0.4*rng.Float64())
		links[l.BP] = append(links[l.BP], l.ID)
	}
	for a := 0; a < nBPs; a++ {
		in.Bids = append(in.Bids, Bid{BP: a, Links: links[a], Cost: AdditiveCost(links[a], func(id int) float64 { return prices[id] })})
	}
	return in
}

// TestDecomposeFlagPreservesOutcome runs the same border-separable
// auction with and without regional decomposition: every outcome field
// must match bit-for-bit (cache hit/miss tallies legitimately differ —
// the decomposed run also probes per-region sub-problems).
func TestDecomposeFlagPreservesOutcome(t *testing.T) {
	for _, seed := range []int64{5, 11} {
		plain := regionalInstance(seed)
		dec := regionalInstance(seed)
		dec.Decompose = true
		dec.Cache = provision.NewFeasibilityCache() // external: lets the test observe engagement

		want, err := plain.Run()
		if err != nil {
			t.Fatalf("seed %d plain: %v", seed, err)
		}
		got, err := dec.Run()
		if err != nil {
			t.Fatalf("seed %d decomposed: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("seed %d: Selected diverged:\n%v\n%v", seed, got.Selected, want.Selected)
		}
		if math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) ||
			math.Float64bits(got.VirtualCost) != math.Float64bits(want.VirtualCost) {
			t.Fatalf("seed %d: cost diverged: %v vs %v", seed, got.TotalCost, want.TotalCost)
		}
		if !reflect.DeepEqual(got.Payments, want.Payments) ||
			!reflect.DeepEqual(got.Alternative, want.Alternative) ||
			!reflect.DeepEqual(got.BPCost, want.BPCost) {
			t.Fatalf("seed %d: payments diverged:\n%+v\n%+v", seed, got, want)
		}
		if got.Checks != want.Checks {
			t.Fatalf("seed %d: check budget diverged: %d vs %d", seed, got.Checks, want.Checks)
		}
		if n := dec.Cache.Stats().Decompositions; n == 0 {
			t.Fatalf("seed %d: decomposition never engaged on a separable instance", seed)
		}
	}
}

// TestDecomposeFlagOnConnectedInstance: on an instance with a single
// component the flag must be a no-op in both outcome and engagement.
func TestDecomposeFlagOnConnectedInstance(t *testing.T) {
	plain := parallelInstance([]float64{10, 20, 30, 40}, 15)
	dec := parallelInstance([]float64{10, 20, 30, 40}, 15)
	dec.Decompose = true
	dec.Cache = provision.NewFeasibilityCache()

	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Selected, want.Selected) || got.TotalCost != want.TotalCost {
		t.Fatalf("connected outcome diverged: %+v vs %+v", got, want)
	}
	if n := dec.Cache.Stats().Decompositions; n != 0 {
		t.Fatalf("decomposed %d probes on a connected instance", n)
	}
}
