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
// labelling, planning a probe into a warm arena allocates the plan
// slice alone — the labelling and the include sets are the arena's
// scratch — whatever the component count, on the benchmark's separable
// 200-router, 800-link synth.
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
	ws := NewWorkspace(s.P, opts)
	rt := ws.acquire()
	defer ws.release(rt)
	comps, _ := decomposePlan(rt, nil, sh, Constraint2, opts)
	if len(comps) < 4 {
		t.Fatalf("plan has %d components, want a split instance", len(comps))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if comps, _ := decomposePlan(rt, nil, sh, Constraint2, opts); comps == nil {
			t.Fatal("no plan")
		}
	})
	t.Logf("a %d-component plan allocates %v objects", len(comps), allocs)
	if allocs > 1 {
		t.Fatalf("a memo-hit plan allocates %v objects, budget 1", allocs)
	}
}
