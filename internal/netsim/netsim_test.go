package netsim

import (
	"math"
	"testing"

	"github.com/public-option/poc/internal/topo"
)

// ringNet builds a 4-router ring with one chord (same shape as the
// provision tests).
func ringNet(capacity float64) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 4)},
		BPs:     make([]topo.BP, 5),
		Routers: []int{0, 1, 2, 3},
	}
	add := func(bp, a, b int, dist float64) {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: bp, A: a, B: b, Capacity: capacity, DistanceKm: dist,
		})
	}
	add(0, 0, 1, 100)
	add(1, 1, 2, 100)
	add(2, 2, 3, 100)
	add(3, 3, 0, 100)
	add(4, 0, 2, 250)
	return p
}

func attach3(t *testing.T, f *Fabric) (EndpointID, EndpointID, EndpointID) {
	t.Helper()
	lmp0, err := f.Attach("lmp0", LMPEndpoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	lmp2, err := f.Attach("lmp2", LMPEndpoint, 2)
	if err != nil {
		t.Fatal(err)
	}
	csp, err := f.Attach("megaflix", CSPEndpoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	return lmp0, lmp2, csp
}

func TestAttachValidation(t *testing.T) {
	f := New(ringNet(10), nil)
	if _, err := f.Attach("x", LMPEndpoint, 99); err == nil {
		t.Fatal("out-of-range router accepted")
	}
	if _, err := f.Attach("x", LMPEndpoint, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach("x", CSPEndpoint, 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := f.Endpoint(42); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if n := len(f.Endpoints()); n != 1 {
		t.Fatalf("endpoints = %d", n)
	}
}

// TestFailUnselectedLinkIsNoop: a fabric can only fail links it
// leases — a schedule replayed against a core with a different
// selection must not pollute FailedLinks with links this fabric never
// carried.
func TestFailUnselectedLinkIsNoop(t *testing.T) {
	// Select the ring only; the chord (link 4) is not leased.
	sel := map[int]bool{0: true, 1: true, 2: true, 3: true}
	f := New(ringNet(10), sel)
	if f.LinkSelected(4) {
		t.Fatal("chord reported selected")
	}
	if !f.LinkSelected(0) {
		t.Fatal("ring link reported unselected")
	}
	if moved := f.FailLink(4); moved != nil {
		t.Fatalf("failing unselected link moved flows: %v", moved)
	}
	if f.LinkFailed(4) {
		t.Fatal("unselected link marked failed")
	}
	if got := f.FailedLinks(); len(got) != 0 {
		t.Fatalf("FailedLinks = %v after failing an unselected link", got)
	}
}

func TestStartFlowReservesShortestPath(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, _ := attach3(t, f)
	fl, err := f.StartFlow(lmp0, lmp2, 5, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Allocated != 5 {
		t.Fatalf("allocated = %v", fl.Allocated)
	}
	if fl.LatencyKm != 200 { // 0-1-2
		t.Fatalf("latency = %v, want 200", fl.LatencyKm)
	}
	if len(fl.Links) != 2 || fl.Links[0] != 0 || fl.Links[1] != 1 {
		t.Fatalf("links = %v", fl.Links)
	}
	util := f.Utilization()
	if len(util) != 2 || util[0] != (LinkUtil{Link: 0, Utilization: 0.5}) || util[1] != (LinkUtil{Link: 1, Utilization: 0.5}) {
		t.Fatalf("utilization = %v", util)
	}
}

func TestStartFlowPartialAllocation(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, _ := attach3(t, f)
	// First flow takes the whole 0-1-2 path.
	if _, err := f.StartFlow(lmp0, lmp2, 10, BestEffort); err != nil {
		t.Fatal(err)
	}
	// Second gets the next-cheapest path's 10 (0-3-2 at cost 200
	// beats the 250 km chord).
	fl2, err := f.StartFlow(lmp0, lmp2, 25, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if fl2.Allocated != 10 {
		t.Fatalf("allocated = %v, want 10 (bottleneck)", fl2.Allocated)
	}
	if fl2.LatencyKm != 200 {
		t.Fatalf("second flow latency = %v, want 200 via 0-3-2", fl2.LatencyKm)
	}
	// Third saturates the chord.
	fl3, err := f.StartFlow(lmp0, lmp2, 15, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if fl3.Allocated != 10 || len(fl3.Links) != 1 || fl3.Links[0] != 4 {
		t.Fatalf("third flow = %+v", fl3)
	}
	// Fourth: everything full.
	if _, err := f.StartFlow(lmp0, lmp2, 1, BestEffort); err == nil {
		t.Fatal("admission should fail when saturated")
	}
}

func TestStartFlowValidation(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, _ := attach3(t, f)
	if _, err := f.StartFlow(lmp0, lmp2, 0, BestEffort); err == nil {
		t.Fatal("zero demand accepted")
	}
	if _, err := f.StartFlow(lmp0, lmp2, 1, Class{Weight: 0.5}); err == nil {
		t.Fatal("sub-unit weight accepted")
	}
	if _, err := f.StartFlow(99, lmp2, 1, BestEffort); err == nil {
		t.Fatal("unknown src accepted")
	}
	if _, err := f.StartFlow(lmp0, 99, 1, BestEffort); err == nil {
		t.Fatal("unknown dst accepted")
	}
}

func TestSameRouterFlowIsFree(t *testing.T) {
	f := New(ringNet(10), nil)
	a, err := f.Attach("a", LMPEndpoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Attach("b", CSPEndpoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := f.StartFlow(a, b, 100, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Allocated != 100 || len(fl.Links) != 0 {
		t.Fatalf("local flow = %+v", fl)
	}
}

func TestStopFlowReleasesCapacity(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, _ := attach3(t, f)
	fl, err := f.StartFlow(lmp0, lmp2, 10, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StopFlow(fl.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.StopFlow(fl.ID); err == nil {
		t.Fatal("double stop accepted")
	}
	// Capacity back: the same reservation succeeds again.
	fl2, err := f.StartFlow(lmp0, lmp2, 10, BestEffort)
	if err != nil || fl2.Allocated != 10 {
		t.Fatalf("re-admission failed: %v %+v", err, fl2)
	}
}

func TestFailLinkReroutes(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, _ := attach3(t, f)
	fl, err := f.StartFlow(lmp0, lmp2, 5, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	changed := f.FailLink(0) // kill 0-1
	if len(changed) != 1 || changed[0] != fl.ID {
		t.Fatalf("changed = %v", changed)
	}
	got, err := f.Flow(fl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Allocated != 5 {
		t.Fatalf("rerouted allocation = %v", got.Allocated)
	}
	for _, l := range got.Links {
		if l == 0 {
			t.Fatal("rerouted flow still uses failed link")
		}
	}
	// Failing again is a no-op.
	if f.FailLink(0) != nil {
		t.Fatal("double failure should be nil")
	}
	if f.FailLink(-1) != nil || f.FailLink(99) != nil {
		t.Fatal("out-of-range failure should be nil")
	}
}

func TestFailLinkDegradesWhenNoAlternative(t *testing.T) {
	p := ringNet(10)
	// Only the direct link 0-1 selected.
	f := New(p, map[int]bool{0: true})
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 1)
	fl, err := f.StartFlow(a, b, 5, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	f.FailLink(0)
	got, _ := f.Flow(fl.ID)
	if got.Allocated != 0 {
		t.Fatalf("allocation = %v, want 0 (outage)", got.Allocated)
	}
	// Restore re-admits.
	restored := f.RepairLink(0)
	if len(restored) != 1 {
		t.Fatalf("restored = %v", restored)
	}
	got, _ = f.Flow(fl.ID)
	if got.Allocated != 5 {
		t.Fatalf("post-restore allocation = %v", got.Allocated)
	}
	if f.RepairLink(0) != nil {
		t.Fatal("restoring healthy link should be nil")
	}
}

func TestFailLinkPriorityOrder(t *testing.T) {
	// Two flows share the failed link; only one can fit on the
	// alternative. The gold-class flow must win regardless of ID order.
	p := ringNet(10)
	sel := map[int]bool{0: true, 1: true, 4: true} // 0-1, 1-2, chord 0-2
	f := New(p, sel)
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 2)
	gold := Class{Name: "gold", Weight: 4, Price: 100}
	beFlow, err := f.StartFlow(a, b, 6, BestEffort) // takes 0-1-2 (cost 200 < 250)
	if err != nil {
		t.Fatal(err)
	}
	goldFlow, err := f.StartFlow(a, b, 6, gold) // takes chord (4 left on 0-1-2)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the chord: gold must be rerouted first onto 0-1-2 residual.
	f.FailLink(4)
	g, _ := f.Flow(goldFlow.ID)
	be, _ := f.Flow(beFlow.ID)
	if g.Allocated != 4 {
		t.Fatalf("gold allocation = %v, want 4 (residual)", g.Allocated)
	}
	if be.Allocated != 6 {
		t.Fatalf("best-effort allocation = %v, want 6 (untouched)", be.Allocated)
	}
}

func TestFailRepairBP(t *testing.T) {
	// Links 0 (0-1) and 4 (0-2) belong to BP 0 here; ring remainder to
	// other BPs. Failing BP 0 must take both down in one pass.
	p := ringNet(10)
	p.Links[4].BP = 0
	f := New(p, nil)
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 2)
	fl, err := f.StartFlow(a, b, 8, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	changed := f.FailBP(0)
	if len(changed) != 1 || changed[0] != fl.ID {
		t.Fatalf("changed = %v", changed)
	}
	if !f.LinkFailed(0) || !f.LinkFailed(4) {
		t.Fatal("BP 0 links not failed")
	}
	if got := f.FailedLinks(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("failed links = %v", got)
	}
	// The flow survives via 0-3-2.
	got, _ := f.Flow(fl.ID)
	if got.Allocated != 8 {
		t.Fatalf("allocation = %v, want 8 via 0-3-2", got.Allocated)
	}
	// Repairing the BP clears both links; the flow is already at full
	// demand, so nothing is re-placed.
	if f.RepairBP(0); len(f.FailedLinks()) != 0 {
		t.Fatal("BP repair left links failed")
	}
	// Unknown BP indexes are no-ops, never panics.
	if f.FailBP(99) != nil || f.RepairBP(99) != nil || f.FailBP(-5) != nil {
		t.Fatal("invalid BP index produced flow churn")
	}
}

func TestRepairUpgradesDegradedFlowsByClass(t *testing.T) {
	// Two flows, gold and best-effort, both squeezed onto a thin
	// alternative after a failure; repairing must upgrade gold first.
	p := ringNet(10)
	sel := map[int]bool{0: true, 1: true, 4: true} // 0-1, 1-2, chord 0-2
	f := New(p, sel)
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 2)
	gold := Class{Name: "gold", Weight: 4, Price: 100}
	beFlow, _ := f.StartFlow(a, b, 8, BestEffort) // takes 0-1-2
	goldFlow, _ := f.StartFlow(a, b, 8, gold)     // takes chord (2 left on 0-1-2)
	f.FailLink(4)
	g, _ := f.Flow(goldFlow.ID)
	if g.Allocated != 2 {
		t.Fatalf("gold degraded allocation = %v, want 2", g.Allocated)
	}
	changed := f.RepairLink(4)
	if len(changed) == 0 {
		t.Fatal("repair re-upgraded nothing")
	}
	g, _ = f.Flow(goldFlow.ID)
	be, _ := f.Flow(beFlow.ID)
	if g.Allocated != 8 {
		t.Fatalf("gold post-repair allocation = %v, want 8", g.Allocated)
	}
	if be.Allocated != 8 {
		t.Fatalf("best-effort post-repair allocation = %v, want 8", be.Allocated)
	}
	// Repairing a healthy link is a no-op.
	if f.RepairLink(4) != nil || f.RepairLinks([]int{0, 1}) != nil {
		t.Fatal("repair of healthy links produced churn")
	}
}

func TestFailLinksAtomicCut(t *testing.T) {
	// A correlated cut of 0-1 and 3-0 isolates router 0 except for the
	// chord; the flow must land there in a single reroute pass.
	f := New(ringNet(10), nil)
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 2)
	fl, _ := f.StartFlow(a, b, 5, BestEffort)
	changed := f.FailLinks([]int{0, 3, 0, -1, 99}) // dups/invalid skipped
	if len(changed) != 1 || changed[0] != fl.ID {
		t.Fatalf("changed = %v", changed)
	}
	got, _ := f.Flow(fl.ID)
	if len(got.Links) != 1 || got.Links[0] != 4 || got.Allocated != 5 {
		t.Fatalf("flow after cut = %+v", got)
	}
	if f.FailLinks(nil) != nil {
		t.Fatal("empty cut produced churn")
	}
}

// TestRerouteResumsSharedFailedLink fails the one link hundreds of
// flows share, repairs it, and fails it again under a multicast that
// stays on it. A reroute resums a failed link once, after its last
// victim has left, not once per victim: every link's used and resid
// must still equal a from-scratch ordered sum bit for bit (invariants)
// after each step, the failed link's included.
func TestRerouteResumsSharedFailedLink(t *testing.T) {
	f := New(ringNet(1000), nil)
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 1)
	for i := 0; i < 400; i++ {
		if _, err := f.StartFlow(a, b, 0.3+float64(i%7)/3, BestEffort); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.flowsOn[0]) != 400 || f.used[0] == 0 {
		t.Fatalf("fixture: %d flows on link 0 (sum %v), want all 400", len(f.flowsOn[0]), f.used[0])
	}
	invariants(t, f)
	if victims := f.FailLink(0); len(victims) != 400 {
		t.Fatalf("failing link 0 rerouted %d flows, want 400", len(victims))
	}
	invariants(t, f)
	if f.used[0] != 0 || f.resid[0] != f.net.Links[0].Capacity {
		t.Fatalf("failed link 0 kept used %v, resid %v", f.used[0], f.resid[0])
	}
	f.RepairLink(0)
	invariants(t, f)
	m, err := f.StartMulticast(a, []EndpointID{b}, 1.7)
	if err != nil || len(m.TreeLinks) != 1 || m.TreeLinks[0] != 0 {
		t.Fatalf("multicast %+v, %v: want the tree {0}", m, err)
	}
	for i := 0; i < 300; i++ {
		f.StartFlow(a, b, 0.3+float64(i%5)/3, BestEffort)
	}
	if victims := f.FailLink(0); len(victims) != 300 {
		t.Fatalf("failing link 0 under the multicast rerouted %d flows, want 300", len(victims))
	}
	invariants(t, f)
	if f.used[0] != 1.7 {
		t.Fatalf("failed link 0 holds %v, want the multicast's 1.7 alone", f.used[0])
	}
	f.RepairLink(0)
	invariants(t, f)
}

// TestFailRepairConservesCapacityExactly is the bit-for-bit
// conservation gate: residuals are recomputed as exact ordered sums,
// so any fail → repair → fail cycling returns every link to exactly
// capacity − Σ allocations, and to exactly capacity once flows stop.
func TestFailRepairConservesCapacityExactly(t *testing.T) {
	f := New(ringNet(10), nil)
	a, _ := f.Attach("a", LMPEndpoint, 0)
	b, _ := f.Attach("b", LMPEndpoint, 2)
	var flows []FlowID
	for i := 0; i < 3; i++ {
		if fl, err := f.StartFlow(a, b, 3.3333333333, BestEffort); err == nil {
			flows = append(flows, fl.ID)
		}
	}
	for cycle := 0; cycle < 50; cycle++ {
		f.FailLink(cycle % 5)
		f.FailLink((cycle + 2) % 5)
		f.RepairLink(cycle % 5)
		f.RepairLink((cycle + 2) % 5)
	}
	for _, id := range flows {
		if err := f.StopFlow(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range f.SelectedLinks() {
		if f.resid[l] != f.net.Links[l].Capacity {
			t.Fatalf("link %d residual %v != capacity %v after full release (drift %g)",
				l, f.resid[l], f.net.Links[l].Capacity, f.net.Links[l].Capacity-f.resid[l])
		}
	}
}

func TestTickAccumulatesUsage(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, csp := attach3(t, f)
	fl1, _ := f.StartFlow(csp, lmp0, 8, BestEffort)
	fl2, _ := f.StartFlow(csp, lmp2, 4, BestEffort)
	f.Tick(100) // 8 Gbps * 100s / 8 = 100 GB; 4*100/8 = 50 GB
	g1, _ := f.Flow(fl1.ID)
	g2, _ := f.Flow(fl2.ID)
	if math.Abs(g1.TransferredGB-100) > 1e-9 || math.Abs(g2.TransferredGB-50) > 1e-9 {
		t.Fatalf("transferred = %v, %v", g1.TransferredGB, g2.TransferredGB)
	}
	usage := f.UsageByEndpoint()
	if math.Abs(usage[csp]-150) > 1e-9 {
		t.Fatalf("CSP usage = %v, want 150", usage[csp])
	}
	if math.Abs(usage[lmp0]-100) > 1e-9 || math.Abs(usage[lmp2]-50) > 1e-9 {
		t.Fatalf("LMP usage = %v / %v", usage[lmp0], usage[lmp2])
	}
}

func TestTickRejectsInvalidDurations(t *testing.T) {
	f := New(ringNet(10), nil)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := f.Tick(bad); err == nil {
			t.Fatalf("Tick(%v) accepted", bad)
		}
	}
	if err := f.Tick(0); err != nil {
		t.Fatalf("Tick(0): %v", err)
	}
}

func TestStartFlowRejectsNonFiniteInput(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, _ := attach3(t, f)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := f.StartFlow(lmp0, lmp2, bad, BestEffort); err == nil {
			t.Fatalf("demand %v accepted", bad)
		}
		if _, err := f.StartMulticast(lmp0, []EndpointID{lmp2}, bad); err == nil {
			t.Fatalf("multicast rate %v accepted", bad)
		}
	}
	if _, err := f.StartFlow(lmp0, lmp2, 1, Class{Weight: math.NaN()}); err == nil {
		t.Fatal("NaN class weight accepted")
	}
}

func TestFlowsSnapshotOrdered(t *testing.T) {
	f := New(ringNet(10), nil)
	lmp0, lmp2, csp := attach3(t, f)
	f.StartFlow(lmp0, lmp2, 1, BestEffort)
	f.StartFlow(csp, lmp2, 1, BestEffort)
	fs := f.Flows()
	if len(fs) != 2 || fs[0].ID >= fs[1].ID {
		t.Fatalf("flows = %+v", fs)
	}
	if _, err := f.Flow(99); err == nil {
		t.Fatal("unknown flow accepted")
	}
}

func TestExternalFallbackTopology(t *testing.T) {
	// Figure 1: destinations not on the POC are reached via an
	// external ISP attachment. Model: external endpoint at router 3.
	f := New(ringNet(10), nil)
	lmp0, _, _ := attach3(t, f)
	ext, err := f.Attach("rest-of-internet", ExternalEndpoint, 3)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := f.StartFlow(lmp0, ext, 3, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if fl.LatencyKm != 100 { // direct 0-3
		t.Fatalf("latency = %v", fl.LatencyKm)
	}
	e, _ := f.Endpoint(ext)
	if e.Kind != ExternalEndpoint || e.Kind.String() != "external" {
		t.Fatalf("endpoint = %+v", e)
	}
}
