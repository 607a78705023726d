package netsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// attach4 attaches one LMP endpoint per ring router.
func attach4(t *testing.T, f *Fabric) []EndpointID {
	t.Helper()
	eps := make([]EndpointID, 4)
	for r := 0; r < 4; r++ {
		id, err := f.Attach(string(rune('a'+r)), LMPEndpoint, r)
		if err != nil {
			t.Fatal(err)
		}
		eps[r] = id
	}
	return eps
}

// TestStaleIDNeverAliasesRecycledSlot pins the generation-tag
// contract: once a flow is stopped, its ID stays invalid forever,
// even after the table slot it occupied is recycled by a new flow.
func TestStaleIDNeverAliasesRecycledSlot(t *testing.T) {
	f := New(ringNet(100), nil)
	eps := attach4(t, f)

	first, err := f.StartFlow(eps[0], eps[1], 5, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StopFlow(first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := f.StartFlow(eps[2], eps[3], 7, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	// The second flow must have recycled the first one's slot (LIFO
	// free list) under a bumped generation, giving a distinct ID.
	if got, want := int64(second.ID)&(1<<slotBits-1), int64(first.ID)&(1<<slotBits-1); got != want {
		t.Fatalf("second flow took slot %d, want recycled slot %d", got, want)
	}
	if second.ID == first.ID {
		t.Fatalf("recycled slot reissued the same FlowID %d", first.ID)
	}
	if _, err := f.Flow(first.ID); err == nil {
		t.Fatalf("stale ID %d resolved after its slot was recycled", first.ID)
	}
	if err := f.StopFlow(first.ID); err == nil {
		t.Fatalf("stale ID %d stopped the recycled slot's flow", first.ID)
	}
	if fl, err := f.Flow(second.ID); err != nil || fl.Src != eps[2] || fl.Demand != 7 {
		t.Fatalf("live flow misread after recycle: %+v, %v", fl, err)
	}
}

// TestFlowsStayInAdmissionOrderAcrossRecycling pins that Flows and
// RangeFlows iterate in admission order (strictly increasing Seq)
// even when slot recycling makes numeric IDs non-monotonic, and that
// Flows, RangeFlows and Flow(id) build the same whole Flow after a
// reroute has re-placed paths in the middle of the population.
func TestFlowsStayInAdmissionOrderAcrossRecycling(t *testing.T) {
	f := New(ringNet(1000), nil)
	eps := attach4(t, f)
	var live []FlowID
	for i := 0; i < 30; i++ {
		fl, err := f.StartFlow(eps[i%4], eps[(i+1)%4], 1+float64(i), BestEffort)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, fl.ID)
		if i%3 == 2 { // stop the middle of the live set, forcing recycling
			mid := len(live) / 2
			if err := f.StopFlow(live[mid]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:mid], live[mid+1:]...)
		}
	}
	if moved := f.FailLink(0); len(moved) == 0 {
		t.Fatal("failing link 0 rerouted no flow")
	}
	if err := f.Tick(10); err != nil {
		t.Fatal(err)
	}
	fs := f.Flows()
	if len(fs) != len(live) {
		t.Fatalf("%d flows live, snapshot has %d", len(live), len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Seq >= fs[i].Seq {
			t.Fatalf("snapshot out of admission order at %d: seq %d then %d", i, fs[i-1].Seq, fs[i].Seq)
		}
	}
	i := 0
	f.RangeFlows(func(fl *Flow) bool {
		if !reflect.DeepEqual(*fl, fs[i]) {
			t.Fatalf("RangeFlows diverges from Flows at %d: %+v vs %+v", i, *fl, fs[i])
		}
		if one, err := f.Flow(fl.ID); err != nil || !reflect.DeepEqual(one, fs[i]) {
			t.Fatalf("Flow(%d) diverges from Flows at %d: %+v, %v vs %+v", fl.ID, i, one, err, fs[i])
		}
		i++
		return true
	})
	if i != len(fs) {
		t.Fatalf("RangeFlows visited %d flows, want %d", i, len(fs))
	}
}

// TestBulkMatchesSequential pins the bulk entry points' contract:
// StartFlows/StopFlows must leave the fabric in exactly the state the
// equivalent sequence of single-flow calls produces — same IDs, same
// allocations, same residuals, bit for bit.
func TestBulkMatchesSequential(t *testing.T) {
	specs := func() []FlowSpec {
		var out []FlowSpec
		for i := 0; i < 40; i++ {
			out = append(out, FlowSpec{
				Src:    EndpointID(i % 4),
				Dst:    EndpointID((i + 1 + i%2) % 4),
				Demand: 0.7 + float64(i%9)*1.3,
				Class:  BestEffort,
			})
		}
		// An invalid spec: bulk admission must record it as -1 exactly
		// where the sequential loop gets an error.
		out[17].Demand = -1
		return out
	}

	fBulk := New(ringNet(60), nil)
	fSeq := New(ringNet(60), nil)
	attach4(t, fBulk)
	attach4(t, fSeq)

	startSeq := func(specs []FlowSpec) []FlowID {
		var ids []FlowID
		for _, sp := range specs {
			fl, err := fSeq.StartFlow(sp.Src, sp.Dst, sp.Demand, sp.Class)
			if err != nil {
				ids = append(ids, -1)
				continue
			}
			ids = append(ids, fl.ID)
		}
		return ids
	}

	idsBulk := fBulk.StartFlows(specs())
	if idsSeq := startSeq(specs()); !reflect.DeepEqual(idsBulk, idsSeq) {
		t.Fatalf("bulk admission IDs diverge:\n%v\n%v", idsBulk, idsSeq)
	}

	// Stop every third flow — with duplicates and junk mixed in, which
	// the sequential loop must skip the same way StopFlows does.
	var stops []FlowID
	for i := 0; i < len(idsBulk); i += 3 {
		if idsBulk[i] >= 0 {
			stops = append(stops, idsBulk[i], idsBulk[i]) // duplicate
		}
	}
	stops = append(stops, -1, 9999)
	nBulk := fBulk.StopFlows(stops)
	nSeq := 0
	for _, id := range stops {
		if err := fSeq.StopFlow(id); err == nil {
			nSeq++
		}
	}
	if nBulk != nSeq {
		t.Fatalf("bulk stopped %d, sequential stopped %d", nBulk, nSeq)
	}

	// A second wave lands on the recycled slots of both fabrics.
	wave2 := specs()[:11]
	if !reflect.DeepEqual(fBulk.StartFlows(wave2), startSeq(wave2)) {
		t.Fatal("second-wave IDs diverge after recycling")
	}

	// A third wave the free list only partly covers: after ten more
	// stops, 25 admissions take the free slots and grow the table for
	// the rest.
	var ten []FlowID
	for _, fl := range fBulk.Flows()[:10] {
		ten = append(ten, fl.ID)
		if err := fSeq.StopFlow(fl.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := fBulk.StopFlows(ten); n != 10 {
		t.Fatalf("bulk stopped %d of 10", n)
	}
	wave3 := specs()[:25]
	if free := len(fBulk.tab.free); free == 0 || free >= len(wave3) {
		t.Fatalf("%d free slots for a wave of %d: want the free list to cover it partly", free, len(wave3))
	}
	if !reflect.DeepEqual(fBulk.StartFlows(wave3), startSeq(wave3)) {
		t.Fatal("third-wave IDs diverge where the table grows past its free list")
	}

	if !reflect.DeepEqual(fBulk.Flows(), fSeq.Flows()) {
		t.Fatal("flow populations diverge between bulk and sequential")
	}
	if !reflect.DeepEqual(fBulk.Utilization(), fSeq.Utilization()) {
		t.Fatal("utilization diverges between bulk and sequential")
	}
	for l := range fBulk.net.Links {
		if fBulk.resid[l] != fSeq.resid[l] {
			t.Fatalf("link %d residual diverges: %v vs %v", l, fBulk.resid[l], fSeq.resid[l])
		}
	}
}

// TestChurnReusesDeadOrderEntries: when the order log is full, a
// stop-then-start churn batch that its dead entries cover compacts the
// log in place instead of growing it, and the live flows keep their
// admission order.
func TestChurnReusesDeadOrderEntries(t *testing.T) {
	f := New(ringNet(1000), nil)
	eps := attach4(t, f)
	spec := func(i int) FlowSpec {
		return FlowSpec{Src: eps[i%4], Dst: eps[(i+1+i%2)%4], Demand: 1, Class: BestEffort}
	}
	var specs []FlowSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, spec(i))
	}
	ids := f.StartFlows(specs)
	for i := 0; len(f.tab.order) < cap(f.tab.order); i++ {
		sp := spec(i)
		if _, err := f.StartFlow(sp.Src, sp.Dst, sp.Demand, sp.Class); err != nil {
			t.Fatal(err)
		}
	}
	first, n := &f.tab.order[0], len(f.tab.order)
	var stops []FlowID
	for i := 0; i < len(ids); i += 4 {
		stops = append(stops, ids[i])
	}
	if got := f.StopFlows(stops); got != len(stops) || f.tab.dead != len(stops) {
		t.Fatalf("stopped %d of %d, %d dead log entries: want every stop left dead in the log", got, len(stops), f.tab.dead)
	}
	for i, id := range f.StartFlows(specs[:len(stops)]) {
		if id < 0 {
			t.Fatalf("re-admission %d refused", i)
		}
	}
	if &f.tab.order[0] != first || len(f.tab.order) != n || f.tab.dead != 0 {
		t.Fatalf("order log moved or grew (len %d → %d, %d dead): want it compacted in place", n, len(f.tab.order), f.tab.dead)
	}
	last := int64(-1)
	f.RangeFlows(func(fl *Flow) bool {
		if fl.Seq <= last {
			t.Fatalf("flow %d (seq %d) after seq %d: admission order lost", fl.ID, fl.Seq, last)
		}
		last = fl.Seq
		return true
	})
	if f.NumFlows() != n {
		t.Fatalf("%d live flows, want %d", f.NumFlows(), n)
	}
}

// TestRerouteVictimOrderInvariance pins that a reroute pass's outcome
// depends only on the victim set, not on the order victims were
// gathered (shard layout, crossing-index order): rerouteSlots re-sorts
// by (class weight, admission seq) internally.
func TestRerouteVictimOrderInvariance(t *testing.T) {
	gold := Class{Name: "gold", Weight: 4, Price: 10}
	build := func() *Fabric {
		f := New(ringNet(20), nil)
		eps := attach4(t, f)
		for i := 0; i < 10; i++ {
			c := BestEffort
			if i%3 == 0 {
				c = gold
			}
			// Rejections are fine — the ring is deliberately tight so
			// plenty of admitted flows end up degraded.
			f.StartFlow(eps[i%4], eps[(i+2)%4], 4+float64(i), c)
		}
		f.FailLinks([]int{0, 4}) // leave plenty of degraded flows
		return f
	}

	f1 := build()
	f2 := build()
	gather := func(f *Fabric) []int32 {
		var v []int32
		for i := range f.shards {
			v = append(v, f.shards[i].degraded...)
		}
		return v
	}
	v1 := gather(f1)
	v2 := gather(f2)
	if len(v1) == 0 {
		t.Fatal("fixture produced no degraded flows")
	}
	for i, j := 0, len(v2)-1; i < j; i, j = i+1, j-1 {
		v2[i], v2[j] = v2[j], v2[i]
	}
	f1.failed.Remove(0)
	f2.failed.Remove(0)
	c1 := f1.rerouteSlots(append([]int32(nil), v1...))
	c2 := f2.rerouteSlots(append([]int32(nil), v2...))
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("changed sets diverge under victim permutation:\n%v\n%v", c1, c2)
	}
	if !reflect.DeepEqual(f1.Flows(), f2.Flows()) {
		t.Fatal("flow populations diverge under victim permutation")
	}
}

// TestMemoAcrossBPCycle loads a zoo fabric past saturation, then runs
// FailBP → RepairBP → FailBP on its busiest BP: after each step the
// invariants (the memo's exactness among them) must hold, and some
// stored certificates must still hold so the check means something.
// Both failures must reroute flows.
func TestMemoAcrossBPCycle(t *testing.T) {
	w := topo.DefaultWorld()
	cfg := topo.DefaultZooConfig()
	cfg.NumNetworks = 25
	p := topo.BuildPOCNetwork(w, topo.GenerateZoo(w, cfg), 8, 4, 0)
	perBP := make([]int, len(p.BPs))
	bp := 0
	for _, l := range p.Links {
		if l.BP >= 0 {
			if perBP[l.BP]++; perBP[l.BP] > perBP[bp] {
				bp = l.BP
			}
		}
	}
	f := New(p, nil)
	eps := make([]EndpointID, len(p.Routers))
	for r := range p.Routers {
		id, err := f.Attach(string(rune('A'+r)), LMPEndpoint, r)
		if err != nil {
			t.Fatal(err)
		}
		eps[r] = id
	}
	rng := rand.New(rand.NewSource(5))
	var specs []FlowSpec
	for i := 0; i < 3000; i++ {
		a, b := rng.Intn(len(eps)), rng.Intn(len(eps))
		if a != b {
			specs = append(specs, FlowSpec{Src: eps[a], Dst: eps[b], Demand: 1 + rng.Float64()*40, Class: BestEffort})
		}
	}
	f.StartFlows(specs)
	for step, op := range []string{"FailBP", "RepairBP", "FailBP"} {
		var moved []FlowID
		if op == "FailBP" {
			moved = f.FailBP(bp)
		} else {
			f.RepairBP(bp)
		}
		if op == "FailBP" && len(moved) == 0 {
			t.Fatalf("step %d: failing BP %d rerouted nothing", step, bp)
		}
		invariants(t, f)
		if checkMemo(t, f) == 0 {
			t.Fatalf("step %d (%s): no stored certificate holds at any probe demand", step, op)
		}
	}
}

// TestMemoServesChurn loads a zoo fabric the way the benchmark's
// fabric-churn workload does — the Scale-0.35 zoo, gravity-sampled
// flows whose demands total a tenth of the selected capacity, five
// cycles that stop and restart a tenth of them, then the busiest BP
// failed and repaired — at a third of its flows, and counts the path
// memo's lookups. As flows fill links, links far from a pair's path run
// out of room. A certificate that also listed every link the search
// admitted failed on them and served 6 227 of the 16 677 lookups
// (37 %); the answer's certificate serves 13 248 (79 %), and must
// serve at least memoShare.
func TestMemoServesChurn(t *testing.T) {
	const memoShare = 0.75
	w := topo.DefaultWorld()
	cfg := topo.DefaultZooConfig()
	cfg.NumNetworks = max(int(float64(cfg.NumNetworks)*0.35), 20)
	p := topo.BuildPOCNetwork(w, topo.GenerateZoo(w, cfg), 20, 4, 0)
	gcfg := traffic.DefaultGravityConfig()
	gcfg.TotalGbps *= 0.35 * 0.35
	tm := traffic.Gravity(len(p.Routers), gcfg,
		func(i int) float64 { return w.Cities[p.Routers[i]].Population },
		func(i, j int) float64 { return w.Distance(p.Routers[i], p.Routers[j]) })
	capacity := 0.0
	perBP := make([]int, len(p.BPs))
	bp := 0
	for _, l := range p.Links {
		capacity += l.Capacity
		if l.BP >= 0 {
			if perBP[l.BP]++; perBP[l.BP] > perBP[bp] {
				bp = l.BP
			}
		}
	}
	f := New(p, nil)
	eps := make([]EndpointID, len(p.Routers))
	for r := range p.Routers {
		id, err := f.Attach(string(rune('A'+r)), LMPEndpoint, r)
		if err != nil {
			t.Fatal(err)
		}
		eps[r] = id
	}
	var specs []FlowSpec
	for _, fl := range traffic.SampleFlows(tm, 10000, 0.1*capacity, 1) {
		specs = append(specs, FlowSpec{Src: eps[fl.Src], Dst: eps[fl.Dst], Demand: fl.Gbps, Class: BestEffort})
	}
	ids := f.StartFlows(specs)
	k := len(ids) / 10
	for c := 0; c < 5; c++ {
		f.StopFlows(ids[c*k : (c+1)*k])
		copy(ids[c*k:(c+1)*k], f.StartFlows(specs[c*k:(c+1)*k]))
	}
	if len(f.FailBP(bp)) == 0 {
		t.Fatalf("failing BP %d rerouted nothing", bp)
	}
	f.RepairBP(bp)
	invariants(t, f)
	m := &f.memo
	lookups := m.hits + m.misses
	if share := float64(m.hits) / float64(lookups); share < memoShare {
		t.Fatalf("the memo answered %d of %d lookups (%.1f %%), want at least %.0f %%",
			m.hits, lookups, 100*share, 100*memoShare)
	}
	t.Logf("the memo answered %d of %d lookups", m.hits, lookups)
}

// TestMemoKeepsNoTiedSearch is graph's tied-certificate fixture as a
// fabric: router 0 reaches 1, 2 and 3 over equal links, and 2 and 3
// both reach 4 over equal links. The search for 0→4 meets a three-way
// tie, and the heap's layout takes 0-3-4. Failing link 0-1, off that
// path, makes a fresh search take 0-2-4, though the certificate (no
// refused links) and the stored path's links still hold. The memo must
// not have kept the tied search: the invariants compare every held
// entry with a fresh search, and the next admission must take 0-2-4.
func TestMemoKeepsNoTiedSearch(t *testing.T) {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 5)},
		BPs:     make([]topo.BP, 5),
		Routers: []int{0, 1, 2, 3, 4},
	}
	for _, ab := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {2, 4}, {3, 4}} {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: len(p.Links), A: ab[0], B: ab[1], Capacity: 100, DistanceKm: 100,
		})
	}
	f := New(p, nil)
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 4)
	if fl, err := f.StartFlow(a, b, 1, BestEffort); err != nil || !slices.Equal(fl.Links, []int{2, 4}) {
		t.Fatalf("fixture: flow 0→4 takes %v (%v), want links [2 4], 0-3-4", fl, err)
	}
	f.FailLinks([]int{0})
	invariants(t, f)
	if fl, err := f.StartFlow(a, b, 1, BestEffort); err != nil || !slices.Equal(fl.Links, []int{1, 3}) {
		t.Fatalf("with link 0-1 failed, flow 0→4 takes %v (%v), want links [1 3], 0-2-4", fl, err)
	}
}

// TestArenaCompactionPreservesPaths churns hard enough to trigger
// path-arena and order-log compaction and checks that surviving
// flows' snapshots are untouched.
func TestArenaCompactionPreservesPaths(t *testing.T) {
	f := New(ringNet(1e6), nil)
	eps := attach4(t, f)
	survivors := map[FlowID]Flow{}
	for i := 0; i < 8; i++ {
		fl, err := f.StartFlow(eps[i%4], eps[(i+1)%4], 2, BestEffort)
		if err != nil {
			t.Fatal(err)
		}
		survivors[fl.ID] = *fl
	}
	// Heavy churn: thousands of short-lived flows force both
	// compactions several times over.
	for round := 0; round < 200; round++ {
		var batch []FlowID
		for i := 0; i < 20; i++ {
			fl, err := f.StartFlow(eps[i%4], eps[(i+2)%4], 1, BestEffort)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, fl.ID)
		}
		if got := f.StopFlows(batch); got != len(batch) {
			t.Fatalf("round %d: stopped %d of %d", round, got, len(batch))
		}
	}
	if got := f.NumFlows(); got != len(survivors) {
		t.Fatalf("%d flows live after churn, want %d", got, len(survivors))
	}
	for id, want := range survivors {
		got, err := f.Flow(id)
		if err != nil {
			t.Fatalf("survivor %d lost: %v", id, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("survivor %d changed across compaction:\ngot  %+v\nwant %+v", id, got, want)
		}
	}
	invariants(t, f)
}
