//go:build !race

package netsim

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestAllocBudgetChurn mirrors BENCHMARK.json's per-layer
// netsim.admit_allocs: New allocates no path-memo storage; once
// searched, the memo holds exactly its four slices — per ordered
// router pair a length, a cost, a window of routers−1 links and one
// certificate bitset of ⌈links/64⌉ words, nothing more; and on a warm
// fabric a StopFlows+StartFlows churn cycle allocates only the ID slice
// StartFlows returns — the memo's lookups and its certified searches
// allocate nothing per search or per flow. The ring is tight enough
// that certificates fail and searches re-run. (The race detector
// inflates counts, hence the build tag.)
func TestAllocBudgetChurn(t *testing.T) {
	f := New(ringNet(40), nil)
	if f.memo.plen != nil || f.memo.links != nil || f.memo.rej != nil {
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
	m := &f.memo
	pairs, words := m.routers*m.routers, (len(f.net.Links)+63)/64
	if got, want := capBytes(m.plen)+capBytes(m.cost)+capBytes(m.links)+capBytes(m.rej),
		pairs*(4+8+4*(m.routers-1)+8*words); got != want {
		t.Fatalf("path memo holds %d bytes for %d pairs over %d links, budget %d", got, pairs, len(f.net.Links), want)
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

// TestAllocBudgetBulkAdmission: a bulk admission grows the flow table
// once for the whole batch — each per-slot array and the order log by
// exactly the batch, the path arena by doubling — so it allocates what
// it keeps. Every flow crosses the one link 0–1, so besides the arena
// only that link's crossing index grows with the batch (by append's
// steps). A tenfold larger batch may allocate only a fixed budget of
// objects more, for those two, and its bytes, the returned ID slice
// and the crossing index among them, stay within 1.5× of the table's
// final size. Grown one append at a time, the table took over 100
// more objects and 3.8× its size.
func TestAllocBudgetBulkAdmission(t *testing.T) {
	admit := func(n int) (objects, bytes uint64, table int) {
		f := New(ringNet(1e9), nil)
		a, _ := f.Attach("a", LMPEndpoint, 0)
		b, _ := f.Attach("b", LMPEndpoint, 1)
		specs := make([]FlowSpec, n)
		for i := range specs {
			specs[i] = FlowSpec{Src: a, Dst: b, Demand: 1, Class: BestEffort}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.StartFlows(specs)
		runtime.ReadMemStats(&after)
		if f.NumFlows() != n {
			t.Fatalf("admitted %d of %d flows", f.NumFlows(), n)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, tableBytes(&f.tab)
	}
	small, _, _ := admit(1000)
	large, bytes, table := admit(10000)
	const budget = 12 // log2(10) arena doublings + the crossing index's steps
	if large > small+budget {
		t.Errorf("bulk admission of 10 000 flows allocates %d objects, of 1 000 %d: budget +%d", large, small, budget)
	}
	if float64(bytes) > 1.5*float64(table) {
		t.Errorf("bulk admission of 10 000 flows allocates %d bytes for a %d-byte table (%.2f×), budget 1.5×",
			bytes, table, float64(bytes)/float64(table))
	}
}

// tableBytes is the capacity of the flow table's per-slot arrays,
// order log and path arena, in bytes.
func tableBytes(t *flowTable) int {
	return capBytes(t.src) + capBytes(t.dst) + capBytes(t.demand) + capBytes(t.alloc) +
		capBytes(t.latency) + capBytes(t.transferred) + capBytes(t.classID) + capBytes(t.seq) +
		capBytes(t.gen) + capBytes(t.pathOff) + capBytes(t.pathLen) + capBytes(t.degPos) +
		capBytes(t.mark) + capBytes(t.order) + capBytes(t.arena.data)
}

func capBytes[E any](s []E) int {
	var e E
	return cap(s) * int(unsafe.Sizeof(e))
}
