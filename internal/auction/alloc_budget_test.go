//go:build !race

package auction

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// The race detector inflates allocation counts, hence the build tag; CI
// runs this with the other budgets.

// TestAllocBudgetDropBatch: a bisecting dropBatch probes its caller's
// one trial set at every node, so it allocates nothing — no set per
// bisection node.
func TestAllocBudgetDropBatch(t *testing.T) {
	const links = 800
	var in Instance
	offered := linkset.All(links)
	set, trial := linkset.New(links), linkset.New(links)
	cand := make([]int, 64)
	for i := range cand {
		cand[i] = 3 * i
	}
	// Every fourth candidate is needed, so the bisection descends to
	// single links on every branch that holds one.
	checks, dropped := 0, 0
	feasible := func(s *linkset.Set) bool {
		checks++
		for i := 0; i < len(cand); i += 4 {
			if !s.Contains(cand[i]) {
				return false
			}
		}
		return true
	}
	run := func() {
		set.CopyFrom(offered)
		checks = 0
		dropped = in.dropBatch(set, trial, cand, feasible, math.MaxInt, &checks)
	}
	allocs := testing.AllocsPerRun(10, run)
	if dropped != len(cand)-len(cand)/4 || checks < len(cand) {
		t.Fatalf("dropped %d of %d candidates in %d checks, want %d dropped after a full bisection",
			dropped, len(cand), checks, len(cand)-len(cand)/4)
	}
	if allocs != 0 {
		t.Fatalf("a dropBatch bisecting over %d checks allocates %v objects, budget 0", checks, allocs)
	}
}

// budgetInstance is a 256-link synth auction at the continental
// workload's settings: Constraint 2 over 8 failure scenarios, 40
// checks of batch refinement.
func budgetInstance() *Instance {
	s := topo.GenerateSynth(topo.SynthConfig{
		Seed: 3, Regions: 4, Routers: 64, Links: 256, BPsPerRegion: 4, Hubs: 2, Pairs: 6, Gbps: 6,
	})
	tm := traffic.NewMatrix(len(s.P.Routers))
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	return &Instance{
		Network: s.P, Bids: StandardBids(s.P, DefaultLeasePricing()), TM: tm, Constraint: provision.Constraint2,
		RouteOpts: provision.Options{FailureScenarios: 8}, MaxChecks: 40,
	}
}

// TestAllocBudgetDeterminationHit: through a shared cache that already
// holds the determination, determine is one memo lookup plus C(L): the
// key is built from the words of the run's OL, so it allocates only
// costOf's scratch slice — nothing per check, per link or per BP.
func TestAllocBudgetDeterminationHit(t *testing.T) {
	in := budgetInstance()
	rc := in.newRunCtx()
	rc.fc, rc.base, rc.external = provision.NewFeasibilityCache(), rc.priceFingerprint(), true
	opts := in.RouteOpts
	opts.LinkCost = rc.prices.metric
	opts.Workspace = provision.NewWorkspace(in.Network, opts)
	cold, err := in.determine(-1, nil, opts, rc.rawTag(), rc)
	if err != nil {
		t.Fatal(err)
	}
	var warm selection
	allocs := testing.AllocsPerRun(20, func() {
		warm, err = in.determine(-1, nil, opts, rc.rawTag(), rc)
	})
	if err != nil || warm.checks != cold.checks || warm.cost != cold.cost || warm.set != cold.set {
		t.Fatalf("hit returned %d checks, cost %v, err %v; the miss %d checks, cost %v", warm.checks, warm.cost, err, cold.checks, cold.cost)
	}
	if st := rc.fc.Stats(); st.DeterminationHits != 21 || st.DeterminationMisses != 1 {
		t.Fatalf("determination lookups: %+v", st)
	}
	t.Logf("a determination hit allocates %v objects", allocs)
	if allocs > 1 {
		t.Fatalf("a determination hit allocates %v objects, budget 1", allocs)
	}
}

// TestAllocBudgetWarmRun: a whole Run (Workers 1) through a cache
// loaded from a cold run's save answers every winner determination from
// the file. What it allocates is what it derives once (each bid's offer
// set, OL, the price table, the two metrics' workspaces, the Result)
// plus, per determination, costOf's scratch — nothing per check.
func TestAllocBudgetWarmRun(t *testing.T) {
	in := budgetInstance()
	in.Workers = 1
	in.Cache = provision.NewFeasibilityCache()
	cold, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := in.Cache.Save(&file); err != nil {
		t.Fatal(err)
	}
	in.Cache = provision.NewFeasibilityCache()
	if _, err := in.Cache.Load(&file); err != nil {
		t.Fatal(err)
	}
	var warm *Result
	allocs := testing.AllocsPerRun(20, func() {
		warm, err = in.Run()
	})
	if err != nil || !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm run gave %+v, %v; cold %+v", warm, err, cold)
	}
	if st := in.Cache.Stats(); st.Hits+st.Misses != 0 || st.DeterminationMisses != 0 {
		t.Fatalf("warm runs looked up checks or missed determinations: %+v", st)
	}
	t.Logf("a warm Run allocates %v objects", allocs)
	// 101 when this budget was set (145 before OL and the bids' offers
	// were derived once per Run): 16 bids, every one with selected
	// links, so 17 determinations.
	const budget = 101
	if allocs > budget {
		t.Fatalf("a warm Run allocates %v objects, budget %d", allocs, budget)
	}
}
