package provision

import (
	"math/rand"
	"testing"
)

// TestFreeLinkIndexMatchesScan routes random instances tight enough to
// wedge the greedy packing, under every constraint, on arenas of at most
// 64 routers and of more, and checks every freeLink call's candidates
// against a scan of every list (WatchFreeLink).
func TestFreeLinkIndexMatchesScan(t *testing.T) {
	calls := WatchFreeLink(t)
	var small, large int64
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		if seed > 40 {
			n = 65 + rng.Intn(40)
		}
		p := memoNet(rng, n, n/2+rng.Intn(n))
		tm := memoTM(rng, n, 2*n, 10)
		before := calls()
		Check(p, nil, tm, Constraint(1+rng.Intn(3)), Options{FailureScenarios: 4})
		if n <= 64 {
			small += calls() - before
		} else {
			large += calls() - before
		}
	}
	t.Logf("freeLink calls: %d on arenas of at most 64 routers, %d on larger", small, large)
	if small < 200 || large < 200 {
		t.Fatalf("freeLink ran %d times on arenas of at most 64 routers and %d on larger; want at least 200 each", small, large)
	}
}
