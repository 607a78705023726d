package auction_test

import (
	"path/filepath"
	"reflect"
	"testing"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Run derives its routing metric, worker count and observer per call
// and leaves in.RouteOpts alone. These tests pin the two ways the old
// write-through leaked one run into the next.

// A second Run on the same instance still sees the auction-built
// metric, so it honors the external cache and answers every winner
// determination from it, without a check or shave lookup.
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
	if cold.Misses == 0 || cold.DeterminationMisses == 0 ||
		warm.Hits != cold.Hits || warm.Misses != cold.Misses ||
		warm.ShaveHits != cold.ShaveHits || warm.ShaveMisses != cold.ShaveMisses ||
		warm.DeterminationMisses != cold.DeterminationMisses ||
		warm.DeterminationHits != cold.DeterminationHits+cold.DeterminationMisses {
		t.Fatalf("second Run did not replay every determination: cold %+v, warm %+v", cold, warm)
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

// A warm re-clear — LoadFile, then Run on a fresh instance — answers
// every winner determination from one memo entry and returns the cold
// Result, Checks included, without one check or shave lookup: on the
// separable synth instance (decomposed cold) and on the zoo instance
// under Constraint 2.
func TestWarmRerunReplaysEveryDetermination(t *testing.T) {
	s := topo.GenerateSynth(topo.SynthConfig{
		Seed: 3, Regions: 4, Routers: 64, Links: 256, BPsPerRegion: 4, Hubs: 2, Pairs: 6, Gbps: 6,
	})
	tm := traffic.NewMatrix(len(s.P.Routers))
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	bids := auction.StandardBids(s.P, auction.DefaultLeasePricing())
	synth := func() *auction.Instance {
		return &auction.Instance{
			Network: s.P, Bids: bids, TM: tm, Constraint: provision.Constraint2,
			RouteOpts: provision.Options{FailureScenarios: 8}, MaxChecks: 40, Decompose: true,
		}
	}
	zoo, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		instance func() *auction.Instance
	}{
		{"synth", synth},
		{"zoo-c2", func() *auction.Instance { return zoo.Instance(poc.Constraint2, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.instance()
			in.Cache = provision.NewFeasibilityCache()
			cold, err := in.Run()
			if err != nil {
				t.Fatal(err)
			}
			// One determination for SL, one per BP with a selected link.
			determinations := int64(1)
			for _, c := range cold.BPCost {
				if c > 0 {
					determinations++
				}
			}
			if st := in.Cache.Stats(); st.DeterminationMisses != determinations || st.DeterminationEntries != int(determinations) {
				t.Fatalf("cold run stored %d of %d determinations: %+v", st.DeterminationEntries, determinations, st)
			}
			file := filepath.Join(t.TempDir(), "feasibility.cache")
			if err := in.Cache.SaveFile(file); err != nil {
				t.Fatal(err)
			}

			win := tc.instance()
			win.Cache = provision.NewFeasibilityCache()
			if _, err := win.Cache.LoadFile(file); err != nil {
				t.Fatal(err)
			}
			warm, err := win.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Fatalf("warm Result differs from the cold one:\n%+v\n%+v", warm, cold)
			}
			st := win.Cache.Stats()
			if st.Hits+st.Misses != 0 || st.ShaveHits+st.ShaveMisses != 0 ||
				st.DeterminationHits != determinations || st.DeterminationMisses != 0 {
				t.Fatalf("warm run did not answer each of %d determinations with one lookup: %+v", determinations, st)
			}
		})
	}
}
