//go:build !race

package auction

import (
	"math"
	"testing"

	"github.com/public-option/poc/internal/linkset"
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
