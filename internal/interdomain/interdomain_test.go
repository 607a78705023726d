package interdomain

import (
	"slices"
	"testing"
)

// classicTopology builds the textbook AS graph:
//
//	     T1a ===== T1b        (tier-1 peering)
//	     /  \        \
//	   R1    R2       R3      (regionals buy from tier-1s)
//	  /  \     \     /  \
//	S1    S2    S3 ==   S4    (stubs; S3 peers with R1's S2? no —
//	                           S3 peers with S4's sibling below)
//
// Concretely: T1a(1), T1b(2) peer. R1(10), R2(11) customers of T1a;
// R3(12) customer of T1b. Stubs S1(100), S2(101) customers of R1;
// S3(102) customer of R2; S4(103) customer of R3. S2 and S3 peer.
func classicTopology(t *testing.T) *Topology {
	t.Helper()
	top := NewTopology()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(top.AddPeering(1, 2))
	must(top.AddCustomerProvider(10, 1))
	must(top.AddCustomerProvider(11, 1))
	must(top.AddCustomerProvider(12, 2))
	must(top.AddCustomerProvider(100, 10))
	must(top.AddCustomerProvider(101, 10))
	must(top.AddCustomerProvider(102, 11))
	must(top.AddCustomerProvider(103, 12))
	must(top.AddPeering(101, 102))
	return top
}

func TestTopologyValidation(t *testing.T) {
	top := NewTopology()
	if err := top.AddCustomerProvider(1, 1); err == nil {
		t.Fatal("self-provider accepted")
	}
	if err := top.AddPeering(1, 1); err == nil {
		t.Fatal("self-peering accepted")
	}
	if err := top.AddCustomerProvider(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := top.AddPeering(1, 2); err == nil {
		t.Fatal("duplicate relationship accepted")
	}
	if err := top.AddCustomerProvider(2, 1); err == nil {
		t.Fatal("reverse duplicate accepted")
	}
}

func TestBestRoutePreference(t *testing.T) {
	top := classicTopology(t)
	// S2(101) → S3(102): direct peering beats the provider route
	// through R1-T1a-R2.
	r, ok := top.BestRoute(101, 102)
	if !ok {
		t.Fatal("no route")
	}
	if r.FirstHop != PeerOf {
		t.Fatalf("first hop = %v, want peer route", r.FirstHop)
	}
	if len(r.Path) != 2 {
		t.Fatalf("path = %v, want direct", r.Path)
	}
	// R1(10) → S1(100): customer route.
	r, ok = top.BestRoute(10, 100)
	if !ok || r.FirstHop != ProviderOf {
		t.Fatalf("route = %+v, want customer route", r)
	}
	// S1(100) → S4(103): must climb to tier-1, cross the peering and
	// descend: 100-10-1-2-12-103.
	r, ok = top.BestRoute(100, 103)
	if !ok {
		t.Fatal("no route across the core")
	}
	if r.FirstHop != CustomerOf {
		t.Fatalf("first hop = %v, want provider route", r.FirstHop)
	}
	want := []ASN{100, 10, 1, 2, 12, 103}
	if len(r.Path) != len(want) {
		t.Fatalf("path = %v, want %v", r.Path, want)
	}
	for i := range want {
		if r.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", r.Path, want)
		}
	}
}

func TestValleyFreeEnforced(t *testing.T) {
	// Two stubs under different regionals with NO tier-1 peering
	// cannot reach each other through a shared customer (no valleys).
	top := NewTopology()
	top.AddCustomerProvider(100, 10)
	top.AddCustomerProvider(100, 11) // multihomed stub
	top.AddCustomerProvider(101, 10)
	top.AddCustomerProvider(102, 11)
	// 101 → 102 would need 101-10-100-11-102: a valley through stub
	// 100. Must be rejected.
	if r, ok := top.BestRoute(101, 102); ok {
		t.Fatalf("valley route accepted: %v", r.Path)
	}
	// 101 → 100 is fine (via shared provider 10).
	if _, ok := top.BestRoute(101, 100); !ok {
		t.Fatal("legitimate route rejected")
	}
}

func TestPeerRoutesNotTransitive(t *testing.T) {
	// A peer's peer is not reachable: peer routes are not exported to
	// peers (§2.1's transitivity limits).
	top := NewTopology()
	top.AddPeering(1, 2)
	top.AddPeering(2, 3)
	if _, ok := top.BestRoute(1, 3); ok {
		t.Fatal("peer-of-peer route accepted")
	}
	if _, ok := top.BestRoute(1, 2); !ok {
		t.Fatal("direct peer route rejected")
	}
}

func TestSelfRoute(t *testing.T) {
	top := classicTopology(t)
	r, ok := top.BestRoute(5, 5)
	if !ok || len(r.Path) != 1 {
		t.Fatalf("self route = %+v", r)
	}
}

func TestReachable(t *testing.T) {
	top := classicTopology(t)
	// From stub S1, everything is reachable through the hierarchy.
	got := top.Reachable(100)
	if len(got) != 8 {
		t.Fatalf("S1 reaches %d ASes, want 8: %v", len(got), got)
	}
}

func TestTransitBill(t *testing.T) {
	top := classicTopology(t)
	// S2(101) sends 10 units to S3(102) (peer: free) and 5 to S4(103)
	// (provider route: paid).
	bill, err := top.TransitBill(101, map[ASN]float64{102: 10, 103: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bill != 10 { // 5 units × 2
		t.Fatalf("bill = %v, want 10", bill)
	}
	if _, err := top.TransitBill(101, map[ASN]float64{102: -1}, 2); err == nil {
		t.Fatal("negative volume accepted")
	}
	if _, err := top.TransitBill(101, map[ASN]float64{999: 1}, 2); err == nil {
		t.Fatal("unreachable destination accepted")
	}
}

// providers returns the ASes a buys transit from, sorted.
func providers(t *Topology, a ASN) []ASN {
	var out []ASN
	for n, rel := range t.neighbors[a] {
		if rel == CustomerOf {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

func TestProvidersAndASes(t *testing.T) {
	top := classicTopology(t)
	ps := providers(top, 100)
	if len(ps) != 1 || ps[0] != 10 {
		t.Fatalf("providers = %v", ps)
	}
	if len(top.ASes()) != 9 {
		t.Fatalf("ASes = %v", top.ASes())
	}
	if Relationship(9).String() == "" || CustomerOf.String() != "customer-of" {
		t.Fatal("Relationship strings")
	}
}

// The baseline comparison the package exists for: a new entrant stub
// pays transit for most of its reachability under the status quo,
// while the same entrant attached to a POC pays one break-even
// transit bill regardless of destination (§2.5).
func TestStatusQuoVsPOCTransitExposure(t *testing.T) {
	top := classicTopology(t)
	entrant := ASN(101)
	vol := map[ASN]float64{}
	for _, dst := range top.Reachable(entrant) {
		vol[dst] = 1
	}
	bill, err := top.TransitBill(entrant, vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Of 8 destinations, only the direct peer (102) and own customers
	// (none) are free: 7 paid.
	if bill != 7 {
		t.Fatalf("status quo bill = %v, want 7 paid destinations", bill)
	}
}
