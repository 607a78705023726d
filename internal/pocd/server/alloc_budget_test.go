//go:build !race

package server

import "testing"

// TestAllocBudgetPublish: on a warm daemon whose obs registry has not
// been written since the last publish, publish allocates only the
// snapshot's own objects — the Snapshot, the capture it holds,
// core.Snapshot's utilization slice and the render-once closure (six
// objects of sync.OnceValues) — 11 in all, and nothing per recorded
// name: Capture hands out the previous export's maps, and the member
// list is memoized. (The race detector inflates counts, hence the
// build tag.)
func TestAllocBudgetPublish(t *testing.T) {
	s := historyServer(t, 10)
	startFlow(t, s)
	// The writer is idle between ops: publishing from the test's
	// goroutine races with nothing.
	s.publish()
	const budget = 12
	if got := testing.AllocsPerRun(100, s.publish); got > budget {
		t.Fatalf("publish with no registry write since the last allocates %v objects, budget %d", got, budget)
	}
}
