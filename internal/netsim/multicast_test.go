package netsim

import (
	"reflect"
	"testing"

	"github.com/public-option/poc/internal/topo"
)

// starFabric builds a fabric over the ring+chord fixture with a CSP
// source at router 1 and LMP receivers at routers 0, 2 and 3.
func starFabric(t *testing.T) (*Fabric, EndpointID, []EndpointID) {
	t.Helper()
	p := ringNet(10) // reuse the ring+chord fixture: routers 0..3
	f := New(p, nil)
	src, err := f.Attach("src", CSPEndpoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rcv []EndpointID
	for i, router := range []int{0, 2, 3} {
		id, err := f.Attach([]string{"r0", "r2", "r3"}[i], LMPEndpoint, router)
		if err != nil {
			t.Fatal(err)
		}
		rcv = append(rcv, id)
	}
	return f, src, rcv
}

func TestMulticastSharesTreeLinks(t *testing.T) {
	f, src, rcv := starFabric(t)
	m, err := f.StartMulticast(src, rcv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Reached) != 3 {
		t.Fatalf("reached = %v", m.Reached)
	}
	// The tree must use each link at most once; reservation is
	// Gbps × tree size, strictly less than unicast equivalent.
	uni := f.UnicastEquivalentGbps(m)
	if m.TreeGbps() >= uni {
		t.Fatalf("tree %v Gbps not cheaper than unicast %v", m.TreeGbps(), uni)
	}
	// Capacity accounting: each tree link lost exactly 4 Gbps.
	for _, l := range m.TreeLinks {
		if f.resid[l] != 6 {
			t.Fatalf("link %d resid = %v, want 6", l, f.resid[l])
		}
	}
}

func TestMulticastStopReleases(t *testing.T) {
	f, src, rcv := starFabric(t)
	m, err := f.StartMulticast(src, rcv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StopMulticast(m.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.StopMulticast(m.ID); err == nil {
		t.Fatal("double stop accepted")
	}
	for i := range f.resid {
		if f.selected.Contains(i) {
			if f.resid[i] != f.net.Links[i].Capacity {
				t.Fatalf("link %d resid = %v after release", i, f.resid[i])
			}
		}
	}
}

// TestMulticastTieGoesToLowestRouter: the last receiver (router 3) is
// 100 km from both on-tree routers 1 and 2. The tree must attach it at
// router 1 — the lower ID — on every run, never by map iteration order.
func TestMulticastTieGoesToLowestRouter(t *testing.T) {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 4)},
		BPs:     make([]topo.BP, 4),
		Routers: []int{0, 1, 2, 3},
	}
	for _, l := range [][3]int{{0, 1, 10}, {0, 2, 10}, {1, 3, 100}, {2, 3, 100}} {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: len(p.Links), A: l[0], B: l[1], Capacity: 10, DistanceKm: float64(l[2]),
		})
	}
	for run := 0; run < 100; run++ {
		f := New(p, nil)
		var eps []EndpointID
		for r := range p.Routers {
			id, err := f.Attach(string(rune('a'+r)), LMPEndpoint, r)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, id)
		}
		m, err := f.StartMulticast(eps[0], eps[1:], 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.TreeLinks, []int{0, 1, 2}) {
			t.Fatalf("run %d: tree links %v, want [0 1 2] (router 3 attached at router 1)", run, m.TreeLinks)
		}
	}
}

func TestMulticastValidation(t *testing.T) {
	f, src, rcv := starFabric(t)
	if _, err := f.StartMulticast(src, rcv, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := f.StartMulticast(src, nil, 1); err == nil {
		t.Fatal("no receivers accepted")
	}
	if _, err := f.StartMulticast(src, []EndpointID{rcv[0], rcv[0]}, 1); err == nil {
		t.Fatal("duplicate receiver accepted")
	}
	if _, err := f.StartMulticast(99, rcv, 1); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := f.StartMulticast(src, []EndpointID{99}, 1); err == nil {
		t.Fatal("unknown receiver accepted")
	}
}

func TestMulticastInsufficientCapacity(t *testing.T) {
	f, src, rcv := starFabric(t)
	if _, err := f.StartMulticast(src, rcv, 50); err == nil {
		t.Fatal("oversize multicast accepted")
	}
	// Nothing reserved after rejection.
	for i, r := range f.resid {
		if r != f.net.Links[i].Capacity {
			t.Fatalf("link %d resid %v after rejected multicast", i, r)
		}
	}
}

func TestMulticastsSnapshot(t *testing.T) {
	f, src, rcv := starFabric(t)
	if _, err := f.StartMulticast(src, rcv[:1], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartMulticast(src, rcv[1:], 2); err != nil {
		t.Fatal(err)
	}
	ms := f.Multicasts()
	if len(ms) != 2 || ms[0].ID >= ms[1].ID {
		t.Fatalf("multicasts = %+v", ms)
	}
}

func TestAnycastPicksNearest(t *testing.T) {
	f, src, rcv := starFabric(t)
	// rcv[0] at router 0, rcv[1] at router 2 — src at router 1 is 100km
	// from both... attach a member at router 1 itself for a clear win.
	local, err := f.Attach("local", CSPEndpoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAnycast("cdn", rcv[0], rcv[1], local); err != nil {
		t.Fatal(err)
	}
	fl, member, err := f.StartAnycastFlow(src, "cdn", 2, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if member != local {
		t.Fatalf("anycast chose %d, want local member %d", member, local)
	}
	if len(fl.Links) != 0 {
		t.Fatalf("local anycast should use no links, got %v", fl.Links)
	}
}

func TestAnycastFailover(t *testing.T) {
	f, src, rcv := starFabric(t)
	if err := f.RegisterAnycast("cdn", rcv[0], rcv[1]); err != nil {
		t.Fatal(err)
	}
	// Saturate the cheapest member's path (src router 1 → rcv[0]
	// router 0 via link 0) so anycast picks the other member.
	fl1, _, err := f.StartAnycastFlow(src, "cdn", 10, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	_, member2, err := f.StartAnycastFlow(src, "cdn", 5, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if member2 == fl1.Dst {
		t.Fatalf("anycast did not fail over: both flows to %d", member2)
	}
}

func TestAnycastValidation(t *testing.T) {
	f, src, rcv := starFabric(t)
	if err := f.RegisterAnycast("", rcv[0]); err == nil {
		t.Fatal("empty group name accepted")
	}
	if err := f.RegisterAnycast("g", 99); err == nil {
		t.Fatal("unknown member accepted")
	}
	if _, _, err := f.StartAnycastFlow(src, "nope", 1, BestEffort); err == nil {
		t.Fatal("unknown group accepted")
	}
	// Duplicate registration is idempotent.
	if err := f.RegisterAnycast("g", rcv[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAnycast("g", rcv[0], rcv[1]); err != nil {
		t.Fatal(err)
	}
	if n := len(f.anycast["g"]); n != 2 {
		t.Fatalf("group has %d members, want 2", n)
	}
}
