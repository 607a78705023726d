package auction_test

import (
	"reflect"
	"testing"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/provision"
)

// Run derives its routing metric, worker count and observer per call
// and leaves in.RouteOpts alone. These tests pin the two ways the old
// write-through leaked one run into the next.

// A second Run on the same instance still sees the auction-built
// metric, so it honors the external cache and answers every check and
// the shave from it.
func TestRunTwiceWithExternalCacheReplays(t *testing.T) {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	in := s.Instance(poc.Constraint1, 0)
	in.Cache = provision.NewFeasibilityCache()
	first, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	cold := in.Cache.Stats()
	second, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second Run differs from the first:\n%+v\n%+v", first, second)
	}
	warm := in.Cache.Stats()
	if cold.Misses == 0 || warm.Misses != cold.Misses || warm.ShaveMisses != cold.ShaveMisses || warm.Hits <= cold.Hits {
		t.Fatalf("second Run did not replay the cache: cold %+v, warm %+v", cold, warm)
	}
	if in.RouteOpts.LinkCost != nil || in.RouteOpts.Obs != nil {
		t.Fatalf("Run wrote through in.RouteOpts: %+v", in.RouteOpts)
	}
}

// RunCollusion's rerun is a copy of the instance with other bids. It
// must be the auction a fresh instance over those bids runs — routed
// by the withdrawn bids' marginal prices, which volume discounts make
// different from the honest ones.
func TestCollusionRerunDerivesItsOwnMetric(t *testing.T) {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.12, DenseVirtual: true})
	if err != nil {
		t.Fatal(err)
	}
	col, err := auction.RunCollusion(s.Instance(poc.Constraint1, 0))
	if err != nil {
		t.Fatal(err)
	}
	fresh := s.Instance(poc.Constraint1, 0)
	fresh.Bids = nil
	for _, b := range s.Bids {
		kept := auction.Bid{BP: b.BP, Cost: b.Cost}
		for _, id := range b.Links {
			if col.Honest.Selected[id] {
				kept.Links = append(kept.Links, id)
			}
		}
		fresh.Bids = append(fresh.Bids, kept)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Withdrawn, want) {
		t.Fatalf("withdrawn rerun is not the withdrawn bids' own auction:\n got %d links, C(SL) %v, payments %v\nwant %d links, C(SL) %v, payments %v",
			len(col.Withdrawn.Selected), col.Withdrawn.TotalCost, col.Withdrawn.Payments,
			len(want.Selected), want.TotalCost, want.Payments)
	}
}
