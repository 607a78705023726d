package main

import "testing"

func TestBusiestLinkTiesGoToLowestID(t *testing.T) {
	// Four links tie at the top: whatever order the map ranges in,
	// the pick must be the lowest of them, every time.
	util := map[int]float64{383: 0.4, 12: 0.1, 302: 0.4, 88: 0.4, 276: 0.4, 7: 0.39}
	for i := 0; i < 50; i++ {
		if id, u := busiestLink(util); id != 88 || u != 0.4 {
			t.Fatalf("busiestLink = %d (%v), want 88 (0.4)", id, u)
		}
	}
	if id, _ := busiestLink(map[int]float64{}); id != -1 {
		t.Fatalf("busiestLink of an idle fabric = %d, want -1", id)
	}
}
