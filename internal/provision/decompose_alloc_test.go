//go:build !race

package provision

import (
	"testing"

	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// The race detector inflates allocation counts, hence the build tag; CI
// runs this with the other budgets.

// TestAllocBudgetDecomposePlan: once the shape has restricted a
// labelling, planning a probe allocates the partition, the plan and one
// batch of include sets — a constant, whatever the component count —
// on the benchmark's separable 200-router, 800-link synth.
func TestAllocBudgetDecomposePlan(t *testing.T) {
	s := topo.GenerateSynth(topo.SynthConfig{
		Seed: 1, Regions: 8, Routers: 200, Links: 800, BPsPerRegion: 4, Hubs: 4, Pairs: 40, Gbps: 6,
	})
	tm := traffic.NewMatrix(len(s.P.Routers))
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	sh := newShape(tm)
	opts := Options{FailureScenarios: 8}
	comps, _ := decomposePlan(s.P, nil, sh, Constraint2, opts)
	if len(comps) < 4 {
		t.Fatalf("plan has %d components, want a split instance", len(comps))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if comps, _ := decomposePlan(s.P, nil, sh, Constraint2, opts); comps == nil {
			t.Fatal("no plan")
		}
	})
	t.Logf("a %d-component plan allocates %v objects", len(comps), allocs)
	if allocs > 8 {
		t.Fatalf("a memo-hit plan allocates %v objects, budget 8", allocs)
	}
}
