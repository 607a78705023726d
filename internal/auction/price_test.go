package auction

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/public-option/poc/internal/fnv64"
	"github.com/public-option/poc/internal/topo"
)

// pricedInstance is regionalInstance(5) under volume-discount bids —
// marginal prices differ from singleton ones — plus one virtual link at
// a contract price.
func pricedInstance() *Instance {
	in := regionalInstance(5)
	p := in.Network
	v := topo.LogicalLink{ID: len(p.Links), BP: topo.VirtualBP, A: 0, B: 4, Capacity: 40, DistanceKm: 300}
	p.Links = append(p.Links, v)
	in.Bids = StandardBids(p, DefaultLeasePricing())
	in.Virtual = []VirtualLink{{LinkID: v.ID, ContractPrice: 2500}}
	return in
}

// outcomeDigest folds everything a Run over links logical links
// decides — SL, C(SL), every C(SL_-a) and payment, the check count —
// into one number.
func outcomeDigest(res *Result, links int) uint64 {
	h := uint64(fnv64.Offset)
	for id := range links {
		if res.Selected[id] {
			h = fnv64.Mix(h, uint64(id))
		}
	}
	h = fnv64.Mix(h, math.Float64bits(res.TotalCost))
	for a := range res.Payments {
		h = fnv64.Mix(fnv64.Mix(h, math.Float64bits(res.Payments[a])), math.Float64bits(res.Alternative[a]))
	}
	return fnv64.Mix(h, uint64(res.Checks))
}

// TestRunPricesBidsOnce: Run prices the bids once and shares the table
// with every winner determination, so one Run evaluates the bids'
// CostFns Σ_a(|L_a|+1) times for pricing plus one call per bid for
// validation, one per bid for each determination's C(L) and one per bid
// for C_a(SL_a) — not a full pricing per determination. The table's
// fingerprint keys persisted caches, so it must keep its bytes, and
// the run's outcome — its pass 2 drops links in the table's price
// order (MaxChecks 40) — must be the one the map form produced.
func TestRunPricesBidsOnce(t *testing.T) {
	in := pricedInstance()
	const wantFP uint64 = 0x62ec9d755947beb6 // priceFingerprint of this instance, recorded before the table replaced the price map
	if got := in.newRunCtx().priceFingerprint(); got != wantFP {
		t.Fatalf("priceFingerprint = %#x, want %#x", got, wantFP)
	}

	var calls atomic.Int64
	pricing := 0
	for a := range in.Bids {
		cost := in.Bids[a].Cost
		in.Bids[a].Cost = func(links []int) float64 {
			calls.Add(1)
			return cost(links)
		}
		pricing += len(in.Bids[a].Links) + 1
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	const wantOutcome uint64 = 0xb187bb9e57799434 // recorded from the map-based implementation
	if got := outcomeDigest(res, len(in.Network.Links)); got != wantOutcome {
		t.Fatalf("outcome digest = %#x, want %#x", got, wantOutcome)
	}
	need := 0 // BPs with selected links: one counterfactual each
	for _, b := range in.Bids {
		for _, id := range b.Links {
			if res.Selected[id] {
				need++
				break
			}
		}
	}
	bids := len(in.Bids)
	limit := pricing + bids + (1+need)*bids + bids
	if got := int(calls.Load()); got > limit {
		t.Fatalf("one Run called the bids' CostFns %d times, limit %d (pricing %d, %d counterfactuals, %d bids)",
			got, limit, pricing, need, bids)
	}
}
