package interdomain

import "testing"

func TestSyntheticHierarchyShape(t *testing.T) {
	h, err := SyntheticHierarchy(3, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Tier1s) != 3 || len(h.Regionals) != 6 || len(h.Stubs) != 24 {
		t.Fatalf("shape = %d/%d/%d", len(h.Tier1s), len(h.Regionals), len(h.Stubs))
	}
	// Every stub reaches every other AS (full hierarchy + tier-1 mesh).
	total := len(h.Topology.ASes())
	for _, s := range h.Stubs[:3] {
		if got := len(h.Topology.Reachable(s)); got != total-1 {
			t.Fatalf("stub %d reaches %d of %d", s, got, total-1)
		}
	}
	// Regionals are multihomed.
	for _, r := range h.Regionals {
		if ps := providers(h.Topology, r); len(ps) != 2 {
			t.Fatalf("regional %d has providers %v, want 2", r, ps)
		}
	}
}

func TestSyntheticHierarchyValidation(t *testing.T) {
	if _, err := SyntheticHierarchy(0, 1, 1); err == nil {
		t.Fatal("zero tier-1s accepted")
	}
	if _, err := SyntheticHierarchy(1, 0, 1); err == nil {
		t.Fatal("zero regionals accepted")
	}
}

func TestSingleTier1(t *testing.T) {
	h, err := SyntheticHierarchy(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Single-homed regionals; still fully reachable.
	total := len(h.Topology.ASes())
	if got := len(h.Topology.Reachable(h.Stubs[0])); got != total-1 {
		t.Fatalf("reach = %d of %d", got, total-1)
	}
}

func TestCompareStubTransit(t *testing.T) {
	h, err := SyntheticHierarchy(2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	stub := h.Stubs[0]
	cmp, err := h.CompareStubTransit(stub, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Reachable == 0 {
		t.Fatal("no reachability")
	}
	// Almost everything is a paid provider route; only the stub's
	// direct peer is free.
	if cmp.PaidDestinations != cmp.Reachable-1 {
		t.Fatalf("paid = %d of %d, want all but the one peer", cmp.PaidDestinations, cmp.Reachable)
	}
	if cmp.StatusQuoBill != float64(cmp.PaidDestinations)*2 {
		t.Fatalf("bill = %v", cmp.StatusQuoBill)
	}
	if cmp.POCBill >= cmp.StatusQuoBill {
		t.Fatalf("POC bill %v not below status quo %v at a lower unit price", cmp.POCBill, cmp.StatusQuoBill)
	}
}
