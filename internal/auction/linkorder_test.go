package auction

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/public-option/poc/internal/provision"
)

// TestBidLinkOrderInvariant: a bid is a set of links and a cost
// function; the order the bid lists its links in is not part of the
// offer. Reversing or shuffling every bid's Links must give the same
// Result, bit for bit, on the small zoo instance under Constraints 1–3.
// A CostFn sums floats in the order of its argument, so a Run that
// priced a bid in its own order would let a BP move the selection by
// reordering its list.
func TestBidLinkOrderInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine zoo auctions")
	}
	cfg := buildFigure2Instance(t, 0.35)
	rng := rand.New(rand.NewSource(7))
	reorders := []struct {
		name    string
		reorder func([]int)
	}{
		{"reversed", slices.Reverse[[]int]},
		{"shuffled", func(l []int) { rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] }) }},
	}
	for _, c := range []provision.Constraint{provision.Constraint1, provision.Constraint2, provision.Constraint3} {
		run := func(bids []Bid) *Result {
			in := &Instance{Network: cfg.Network, Bids: bids, Virtual: cfg.Virtual, TM: cfg.TM,
				Constraint: c, RouteOpts: cfg.RouteOpts, MaxChecks: cfg.MaxChecks}
			res, err := in.Run()
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			// Which counterfactual inserts a memo entry first is
			// scheduling order; nothing the auction decides reads it.
			res.CacheHits, res.CacheMisses = 0, 0
			return res
		}
		base := run(cfg.Bids)
		for _, r := range reorders {
			bids := slices.Clone(cfg.Bids)
			for a := range bids {
				bids[a].Links = slices.Clone(bids[a].Links)
				r.reorder(bids[a].Links)
			}
			if got := run(bids); !reflect.DeepEqual(got, base) {
				t.Errorf("%v, %s links: the Result moved (C(SL) %v with %d links after %d checks, want %v with %d after %d)",
					c, r.name, got.TotalCost, len(got.Selected), got.Checks, base.TotalCost, len(base.Selected), base.Checks)
			}
		}
	}
}
