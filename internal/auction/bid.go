// Package auction implements the paper's strategy-proof bandwidth
// auction (§3.3): each bandwidth provider (BP) offers a set of links
// with a minimal acceptable price for each subset of those links; the
// POC picks the cheapest acceptable link set SL (one that satisfies
// its provisioning constraints) and pays each BP the VCG/Clarke-pivot
// amount
//
//	P_a = C_a(SL_a) + ( C(SL_-a) − C(SL) )
//
// where SL_-a is the cheapest acceptable set when BP a withdraws all
// of its links. External ISPs contribute virtual links (VL) at
// contract prices outside the auction; they cap what colluding BPs
// can extract.
package auction

import (
	"fmt"
	"math"
	"slices"

	"github.com/public-option/poc/internal/topo"
)

// CostFn maps a subset of a BP's link IDs to the BP's minimal
// acceptable monthly price for leasing exactly that subset. It must
// return +Inf for subsets the BP does not offer, 0 for the empty set,
// and should be monotone (a superset never costs less); the auction
// does not verify monotonicity but the winner determination assumes
// the empty set is free.
//
// The auction evaluates a CostFn only on subsets in ascending ID
// order, whatever order the bid lists its links in, so a float cost
// summed in argument order is the same for every listing. It passes
// scratch slices it reuses for the next call: a CostFn must not retain
// or modify its argument.
type CostFn func(links []int) float64

// Bid is one BP's offer: the links it puts up for lease and its
// subset-cost function.
type Bid struct {
	BP    int   // index into the POC network's BPs
	Links []int // logical link IDs offered (must belong to this BP)
	Cost  CostFn
}

// Validate checks the bid's internal consistency against the network.
func (b Bid) Validate(p *topo.POCNetwork) error {
	if b.BP < 0 || b.BP >= len(p.BPs) {
		return fmt.Errorf("auction: bid names BP %d of %d", b.BP, len(p.BPs))
	}
	if b.Cost == nil {
		return fmt.Errorf("auction: bid for BP %d has no cost function", b.BP)
	}
	for _, id := range b.Links {
		if id < 0 || id >= len(p.Links) {
			return fmt.Errorf("auction: bid for BP %d offers unknown link %d", b.BP, id)
		}
		if p.Links[id].BP != b.BP {
			return fmt.Errorf("auction: bid for BP %d offers link %d owned by BP %d",
				b.BP, id, p.Links[id].BP)
		}
	}
	if c := b.Cost(nil); c != 0 {
		return fmt.Errorf("auction: bid for BP %d prices the empty set at %v", b.BP, c)
	}
	return nil
}

// AdditiveCost returns a CostFn that sums fixed per-link prices: each
// of links costs price(id). Any other link — and a link priced +Inf —
// is not offered, and prices the subset at +Inf.
func AdditiveCost(links []int, price func(id int) float64) CostFn {
	return newLinkPrices(links, price).sum
}

// VolumeDiscountCost returns a CostFn that sums per-link prices, as
// AdditiveCost does, and then applies a volume discount: leasing k
// links costs (1 − min(maxDiscount, rate·(k−1))) times the additive
// sum. This is the kind of non-additive pricing the paper explicitly
// allows BPs to express ("discounts for multiple links, or other
// non-additive variations in pricing").
func VolumeDiscountCost(links []int, price func(id int) float64, rate, maxDiscount float64) CostFn {
	if rate < 0 || maxDiscount < 0 || maxDiscount >= 1 {
		panic("auction: invalid discount parameters")
	}
	add := AdditiveCost(links, price)
	return func(links []int) float64 {
		base := add(links)
		if math.IsInf(base, 1) || len(links) <= 1 {
			return base
		}
		d := rate * float64(len(links)-1)
		if d > maxDiscount {
			d = maxDiscount
		}
		return base * (1 - d)
	}
}

// linkPrices is a bid's price list, indexed by link ID: link lo+i
// costs of[i], and +Inf marks an ID of the span the bid does not
// offer. The auction evaluates a CostFn Σ_a(|L_a|+1) times to price a
// run and once per bid per determination, so the lookup is one bounds
// check and one load, not a map probe.
type linkPrices struct {
	lo int
	of []float64
}

// newLinkPrices lays out price(id) for each of links over the span
// from the smallest ID to the largest.
func newLinkPrices(links []int, price func(id int) float64) linkPrices {
	if len(links) == 0 {
		return linkPrices{}
	}
	lo, hi := slices.Min(links), slices.Max(links)
	lp := linkPrices{lo: lo, of: make([]float64, hi-lo+1)}
	for i := range lp.of {
		lp.of[i] = math.Inf(1)
	}
	for _, id := range links {
		lp.of[id-lo] = price(id)
	}
	return lp
}

// sum adds the prices of links in argument order and returns +Inf at
// the first link the bid does not offer.
func (lp linkPrices) sum(links []int) float64 {
	total := 0.0
	for _, id := range links {
		i := uint(id - lp.lo)
		if i >= uint(len(lp.of)) || math.IsInf(lp.of[i], 1) {
			return math.Inf(1)
		}
		total += lp.of[i]
	}
	return total
}

// LeasePricing converts a logical link's physical characteristics to
// a monthly lease price. The default models the leased-wave market:
// a fixed port charge plus a distance component, scaled sublinearly
// in capacity (economies of scale), times the BP's cost multiplier.
type LeasePricing struct {
	PortCharge   float64 // per link per month
	PerKm        float64 // per km per month at reference capacity
	RefGbps      float64 // reference capacity for PerKm
	CapacityExpo float64 // capacity exponent (<1 = economies of scale)
}

// DefaultLeasePricing returns the pricing used by the Figure 2
// pipeline. Magnitudes are arbitrary units; only relative costs
// matter to the auction.
func DefaultLeasePricing() LeasePricing {
	return LeasePricing{PortCharge: 2000, PerKm: 3.0, RefGbps: 10, CapacityExpo: 0.8}
}

// Price returns the monthly lease price for link l of network p.
// Virtual links (no owning BP) use a cost multiplier of 1.
func (lp LeasePricing) Price(p *topo.POCNetwork, l topo.LogicalLink) float64 {
	mult := 1.0
	if l.BP != topo.VirtualBP {
		mult = p.BPs[l.BP].CostMult
	}
	scale := math.Pow(l.Capacity/lp.RefGbps, lp.CapacityExpo)
	return mult * (lp.PortCharge + lp.PerKm*l.DistanceKm) * scale
}

// StandardBids builds one bid per BP covering all of its links, using
// the given lease pricing and a volume discount (rate 1% per extra
// link, capped at 12%).
func StandardBids(p *topo.POCNetwork, lp LeasePricing) []Bid {
	// One pass over the links buckets their IDs by BP, ascending as
	// LinksOfBP lists them; a scan per BP is O(BPs × links).
	counts := make([]int, len(p.BPs))
	for _, l := range p.Links {
		if l.BP >= 0 && l.BP < len(counts) {
			counts[l.BP]++
		}
	}
	bids := make([]Bid, len(p.BPs))
	for b, n := range counts {
		bids[b] = Bid{BP: b, Links: make([]int, 0, n)}
	}
	for _, l := range p.Links {
		if l.BP >= 0 && l.BP < len(counts) {
			bids[l.BP].Links = append(bids[l.BP].Links, l.ID)
		}
	}
	price := func(id int) float64 { return lp.Price(p, p.Links[id]) }
	for b := range bids {
		bids[b].Cost = VolumeDiscountCost(bids[b].Links, price, 0.01, 0.12)
	}
	return bids
}

// VirtualLink is a link provided by an external ISP under a long-term
// contract. Virtual links participate in link selection (they give
// the POC alternatives and cap collusion) but receive no auction
// payment; their cost is the contract price.
type VirtualLink struct {
	LinkID        int     // logical link ID in the POC network
	ContractPrice float64 // monthly
}
