//go:build !race

package obs

import (
	"fmt"
	"maps"
	"testing"
)

var sinkCounters map[string]int64

// TestAllocBudgetCapture: a Capture with no write since the previous
// one allocates nothing, and one after a counter Add allocates only
// the counters map — as many objects as cloning that map. (The race
// detector inflates counts, hence the build tag.)
func TestAllocBudgetCapture(t *testing.T) {
	r, _ := capturePopulated()
	for i := 0; i < 40; i++ {
		r.Add(fmt.Sprint("c", i), 1)
	}
	r.Capture()
	if got := testing.AllocsPerRun(100, func() { r.Capture() }); got != 0 {
		t.Errorf("a capture with no write since the last allocates %v objects, budget 0", got)
	}
	clone := testing.AllocsPerRun(100, func() { sinkCounters = maps.Clone(r.counters) })
	t.Logf("cloning the 41 counters allocates %v objects", clone)
	if got := testing.AllocsPerRun(100, func() { r.Add("c", 1); r.Capture() }); got != clone {
		t.Errorf("a capture after one counter write allocates %v objects, budget %v (the counters map)", got, clone)
	}
}
