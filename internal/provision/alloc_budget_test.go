//go:build !race

package provision_test

import (
	"testing"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// The race detector inflates allocation counts, hence the build tag; CI
// runs these in their own step. They mirror BENCHMARK.json's per-layer
// provision.check_allocs, on the Scale-0.12 scenario.

// TestAllocBudgetCheck: a Constraint-1 Check on a reused Workspace
// allocates the Routing it returns — struct, lists, usage, a slab chunk
// or two — and nothing per path or per pair.
func TestAllocBudgetCheck(t *testing.T) {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	opts := s.RouteOptions()
	opts.Workspace = provision.NewWorkspace(s.Network, opts)
	allocs := testing.AllocsPerRun(10, func() {
		if ok, _ := provision.Check(s.Network, nil, s.TM, provision.Constraint1, opts); !ok {
			t.Fatal("full link set infeasible")
		}
	})
	t.Logf("Check allocates %v objects per call", allocs)
	if allocs > 50 {
		t.Fatalf("Check allocates %v objects per call, budget 50", allocs)
	}
}

// TestAllocBudgetTryDrop: in steady state a TryDrop — committed or
// rolled back — repairs in place on the live routing's slabs and the
// Shaver's reused logs. Constraint 1, where a drop is repair and nothing
// else: under 2 and 3 a drop that moves a primary path also builds the
// new primary's link set (and a rebuilt scenario its wrapper).
func TestAllocBudgetTryDrop(t *testing.T) {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := provision.NewShaver(s.Network, nil, s.TM, provision.Constraint1, s.RouteOptions())
	if !ok {
		t.Fatal("full link set infeasible")
	}
	defer sh.Close()
	links := sh.Include().AppendIDs(nil)
	next, committed := 0, 0
	drop := func() {
		if sh.TryDrop(links[next]) {
			committed++
		}
		next++
	}
	for range links[:len(links)/2] { // grows the logs
		drop()
	}
	warm, measured := committed, len(links)-next
	allocs := testing.AllocsPerRun(measured-1, drop)
	if allocs > 2 || committed == warm || committed-warm == measured {
		t.Fatalf("TryDrop allocates %v objects per call, budget 2 (%d of %d measured drops committed)",
			allocs, committed-warm, measured)
	}
}

// TestAllocBudgetPrimaryPaths: Constraints 2 and 3 build one primary
// path set per demand pair, all backed by one allocation, so a
// Constraint-3 Check allocates no more for a matrix with twice the
// pairs.
func TestAllocBudgetPrimaryPaths(t *testing.T) {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	opts := s.RouteOptions()
	opts.Workspace = provision.NewWorkspace(s.Network, opts)
	half := traffic.NewMatrix(s.TM.Size())
	pairs := 0
	s.TM.Demands(func(src, dst int, gbps float64) {
		if pairs%2 == 0 {
			half.Set(src, dst, gbps)
		}
		pairs++
	})
	check := func(tm *traffic.Matrix) float64 {
		return testing.AllocsPerRun(10, func() {
			if ok, _ := provision.Check(s.Network, nil, tm, provision.Constraint3, opts); !ok {
				t.Fatal("full link set infeasible")
			}
		})
	}
	all, halved := check(s.TM), check(half)
	t.Logf("Constraint-3 Check allocates %v objects for %d pairs, %v for %d", all, pairs, halved, (pairs+1)/2)
	if all-halved > 4 {
		t.Fatalf("Constraint-3 Check allocates %v objects for %d pairs but %v for %d: grows with the pair count",
			all, pairs, halved, (pairs+1)/2)
	}
}

// TestAllocBudgetArena: the graph is the workspace's, built by its first
// arena, so every later arena allocates per-check state only — its
// residuals, masks, bitsets and router shells — and the same number of
// objects on the zoo scenario as on the 200-router, 800-link synth.
func TestAllocBudgetArena(t *testing.T) {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	synth := topo.GenerateSynth(topo.SynthConfig{
		Seed: 1, Regions: 8, Routers: 200, Links: 800, BPsPerRegion: 4, Hubs: 4, Pairs: 40, Gbps: 6,
	})
	var counts [2]float64
	for i, p := range []*topo.POCNetwork{s.Network, synth.P} {
		ws := provision.NewWorkspace(p, provision.Options{})
		ws.NewArena() // builds the graph
		counts[i] = testing.AllocsPerRun(10, ws.NewArena)
		t.Logf("an arena over %d routers and %d links allocates %v objects", len(p.Routers), len(p.Links), counts[i])
		if counts[i] > 12 {
			t.Fatalf("an arena over %d links allocates %v objects, budget 12", len(p.Links), counts[i])
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("an arena allocates %v objects on the zoo but %v on the synth: it grows with the network", counts[0], counts[1])
	}
}
