//go:build !race

package netsim

import "testing"

// TestAllocBudgetChurn mirrors BENCHMARK.json's per-layer
// netsim.admit_allocs: New allocates no path-memo storage, and on a
// warm fabric a StopFlows+StartFlows churn cycle allocates only the ID
// slice StartFlows returns — the memo's lookups and its certified
// searches allocate nothing per search or per flow. The ring is tight
// enough that certificates fail and searches re-run. (The race
// detector inflates counts, hence the build tag.)
func TestAllocBudgetChurn(t *testing.T) {
	f := New(ringNet(40), nil)
	if f.memo.plen != nil || f.memo.links != nil || f.memo.certs != nil {
		t.Fatal("New allocated path-memo storage")
	}
	eps := attach4(t, f)
	var specs []FlowSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, FlowSpec{
			Src: eps[i%4], Dst: eps[(i+1+i%2)%4], Demand: 3 + float64(i%7), Class: BestEffort,
		})
	}
	ids := f.StartFlows(specs)
	if f.memo.plen == nil {
		t.Fatal("admission did not go through the path memo")
	}
	const k = 10
	cycle := func() {
		f.StopFlows(ids[:k])
		copy(ids[:k], f.StartFlows(specs[:k]))
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 1 {
		t.Fatalf("a warm churn cycle allocates %v objects, budget 1 (the returned ID slice)", allocs)
	}
}

// TestAllocBudgetUtilization: pocd publishes a utilization list per
// op, so Fabric.Utilization allocates one slice exactly as long as the
// used links (no capacity for the idle ones) and, with none used,
// nothing: an empty list, not nil, so it encodes as [].
func TestAllocBudgetUtilization(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, _ := attach3(t, f)
	if util := f.Utilization(); util == nil || len(util) != 0 {
		t.Fatalf("utilization before any flow = %#v, want empty and non-nil", util)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Utilization() }); allocs != 0 {
		t.Fatalf("utilization with no used link allocates %v objects, budget 0", allocs)
	}
	if _, err := f.StartFlow(lmp0, lmp2, 5, BestEffort); err != nil {
		t.Fatal(err)
	}
	if util := f.Utilization(); len(util) != 2 || cap(util) != len(util) {
		t.Fatalf("utilization over 2 used links of 5: len %d, cap %d", len(util), cap(util))
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Utilization() }); allocs != 1 {
		t.Fatalf("utilization allocates %v objects, budget 1 (the slice)", allocs)
	}
}
