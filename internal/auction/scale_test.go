package auction

import (
	"slices"
	"testing"

	"github.com/public-option/poc/internal/provision"
)

// TestAuctionScaleInvariant: doubling every bid's cost and every
// virtual contract price doubles every price the auction derives, and
// doubling is exact in floating point — every sum, difference and
// comparison of doubled values is the doubled one's — so the outcome
// must be the same selection after the same checks, with every cost
// and payment exactly doubled. On the small zoo instance, under
// Constraints 1 and 2.
func TestAuctionScaleInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four zoo auctions")
	}
	cfg := buildFigure2Instance(t, 0.35)
	// The external ISP's links at a tenth of their lease price, so the
	// selection holds some and VirtualCost is a real sum.
	lp := DefaultLeasePricing()
	for i, v := range cfg.Virtual {
		cfg.Virtual[i].ContractPrice = 0.1 * lp.Price(cfg.Network, cfg.Network.Links[v.LinkID])
	}
	doubled := make([]Bid, len(cfg.Bids))
	for a, b := range cfg.Bids {
		cost := b.Cost
		doubled[a] = Bid{BP: b.BP, Links: b.Links, Cost: func(links []int) float64 { return 2 * cost(links) }}
	}
	virtual := slices.Clone(cfg.Virtual)
	for i := range virtual {
		virtual[i].ContractPrice *= 2
	}
	for _, c := range []provision.Constraint{provision.Constraint1, provision.Constraint2} {
		run := func(bids []Bid, virtual []VirtualLink) *Result {
			in := &Instance{Network: cfg.Network, Bids: bids, Virtual: virtual, TM: cfg.TM,
				Constraint: c, RouteOpts: cfg.RouteOpts, MaxChecks: cfg.MaxChecks}
			res, err := in.Run()
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			return res
		}
		base, scaled := run(cfg.Bids, cfg.Virtual), run(doubled, virtual)
		if len(scaled.Selected) != len(base.Selected) || scaled.Checks != base.Checks {
			t.Fatalf("%v: doubled prices select %d links after %d checks, want %d after %d",
				c, len(scaled.Selected), scaled.Checks, len(base.Selected), base.Checks)
		}
		for id := range base.Selected {
			if !scaled.Selected[id] {
				t.Fatalf("%v: link %d selected at base prices but not doubled", c, id)
			}
		}
		for _, f := range []struct {
			name       string
			base, scal float64
		}{{"TotalCost", base.TotalCost, scaled.TotalCost}, {"VirtualCost", base.VirtualCost, scaled.VirtualCost}} {
			if f.scal != 2*f.base {
				t.Errorf("%v: %s %v at doubled prices, want exactly 2 × %v", c, f.name, f.scal, f.base)
			}
		}
		for a := range cfg.Bids {
			if scaled.Payments[a] != 2*base.Payments[a] || scaled.Alternative[a] != 2*base.Alternative[a] || scaled.BPCost[a] != 2*base.BPCost[a] {
				t.Errorf("%v: BP %d payment/alternative/cost %v/%v/%v at doubled prices, want exactly 2 × %v/%v/%v",
					c, a, scaled.Payments[a], scaled.Alternative[a], scaled.BPCost[a], base.Payments[a], base.Alternative[a], base.BPCost[a])
			}
		}
		if base.VirtualCost == 0 || base.TotalCost == 0 {
			t.Fatalf("%v: C(SL) %v with virtual cost %v: the selection must hold a virtual link for the pin to bite", c, base.TotalCost, base.VirtualCost)
		}
	}
}
