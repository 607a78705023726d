package main

import (
	"testing"

	"github.com/public-option/poc/internal/netsim"
)

func TestBusiestLinkTiesGoToLowestID(t *testing.T) {
	// Four links tie at the top; the list is in ascending link order,
	// as Fabric.Utilization returns it, and the pick must be the
	// lowest of them.
	util := []netsim.LinkUtil{
		{Link: 7, Utilization: 0.39},
		{Link: 12, Utilization: 0.1},
		{Link: 88, Utilization: 0.4},
		{Link: 276, Utilization: 0.4},
		{Link: 302, Utilization: 0.4},
		{Link: 383, Utilization: 0.4},
	}
	if id, u := busiestLink(util); id != 88 || u != 0.4 {
		t.Fatalf("busiestLink = %d (%v), want 88 (0.4)", id, u)
	}
	if id, _ := busiestLink(nil); id != -1 {
		t.Fatalf("busiestLink of an idle fabric = %d, want -1", id)
	}
}
