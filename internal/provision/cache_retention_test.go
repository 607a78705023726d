package provision_test

import (
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// TestCacheRetainsOnlyCallerMatrices runs the decomposed 800-link
// auction of the continental-wd benchmark against one cache and counts
// the matrices the cache keeps alive afterwards. Component sub-checks
// used to fingerprint — and so pin, dense cells and all — a projected
// matrix per component per way of splitting: several hundred after one
// auction, without bound in a process-wide cache. They are restrictions
// of the caller's shape now, and only the caller's matrix is held.
func TestCacheRetainsOnlyCallerMatrices(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 800-link auction")
	}
	s := topo.GenerateSynth(topo.SynthConfig{
		Seed: 1, Regions: 8, Routers: 200, Links: 800, BPsPerRegion: 4, Hubs: 4, Pairs: 40, Gbps: 6,
	})
	tm := traffic.NewMatrix(len(s.P.Routers))
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	in := &auction.Instance{
		Network: s.P, Bids: auction.StandardBids(s.P, auction.DefaultLeasePricing()), TM: tm,
		Constraint: provision.Constraint2,
		RouteOpts:  provision.Options{FailureScenarios: 8},
		MaxChecks:  40,
		Cache:      provision.NewFeasibilityCache(),
		Decompose:  true,
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if st := in.Cache.Stats(); st.Decompositions == 0 {
		t.Fatalf("the separable instance never decomposed: %+v", st)
	}
	if n := in.Cache.Matrices(); n > 2 {
		t.Fatalf("the cache keeps %d matrices alive after one auction over one matrix", n)
	}
}
