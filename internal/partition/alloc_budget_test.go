//go:build !race

package partition

import (
	"testing"

	"github.com/public-option/poc/internal/linkset"
)

// The race detector inflates allocation counts, hence the build tag; CI
// runs this in the allocation-budget step. It mirrors BENCHMARK.json's
// per-layer partition.components_us, which labels the separable
// continental instance once per probe.

// TestAllocBudgetComponents: labelling allocates the Partition and the
// one slice behind Comp and the union-find forest, whatever the number
// of links or components.
func TestAllocBudgetComponents(t *testing.T) {
	// Four 8-router rings; the include set drops one ring's links.
	var pairs [][2]int
	for c := 0; c < 4; c++ {
		for i := 0; i < 8; i++ {
			pairs = append(pairs, [2]int{8*c + i, 8*c + (i+1)%8})
		}
	}
	p := net(32, pairs...)
	s := linkset.All(len(p.Links))
	for id := 24; id < 32; id++ {
		s.Remove(id)
	}
	for _, include := range []*linkset.Set{nil, s} {
		allocs := testing.AllocsPerRun(20, func() { Components(p, include) })
		if allocs > 2 {
			t.Fatalf("Components allocates %v objects per call, budget 2", allocs)
		}
	}
	if pt := Components(p, s); pt.NumComp != 11 {
		t.Fatalf("NumComp = %d, want 3 rings and 8 isolated routers", pt.NumComp)
	}
}

// TestAllocBudgetLabel: labelling into a caller's warm buffer — the
// decomposition's per-probe path — allocates nothing.
func TestAllocBudgetLabel(t *testing.T) {
	var pairs [][2]int
	for i := 0; i < 32; i++ {
		pairs = append(pairs, [2]int{i, (i + 1) % 32}, [2]int{i, (i + 5) % 32})
	}
	p := net(32, pairs...)
	s := linkset.All(len(p.Links))
	for id := 0; id < len(p.Links); id += 3 {
		s.Remove(id)
	}
	buf := make([]int, 2*len(p.Routers))
	for _, include := range []*linkset.Set{nil, s} {
		if allocs := testing.AllocsPerRun(20, func() { Label(p, include, buf) }); allocs != 0 {
			t.Fatalf("Label into a warm buffer allocates %v objects, budget 0", allocs)
		}
	}
}
