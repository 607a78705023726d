package market

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLedgerLegalFlows(t *testing.T) {
	l := &Ledger{}
	poc := l.AddEntity(POC, "poc")
	bp := l.AddEntity(BandwidthProvider, "bp")
	isp := l.AddEntity(ExternalISP, "isp")
	lmp := l.AddEntity(LastMileProvider, "lmp")
	csp := l.AddEntity(ContentProvider, "csp")
	cust := l.AddEntity(Customer, "alice")

	legal := []struct {
		from, to EntityID
		kind     FlowKind
	}{
		{poc, bp, LinkLease},
		{poc, isp, ISPContract},
		{lmp, poc, POCAccess},
		{csp, poc, POCAccess},
		{cust, lmp, LMPAccess},
		{csp, lmp, LMPAccess},
		{cust, csp, ServiceFee},
	}
	for _, f := range legal {
		if err := l.Pay(f.from, f.to, f.kind, 10, ""); err != nil {
			t.Errorf("legal flow %v rejected: %v", f.kind, err)
		}
	}
}

func TestLedgerIllegalFlows(t *testing.T) {
	l := &Ledger{}
	poc := l.AddEntity(POC, "poc")
	bp := l.AddEntity(BandwidthProvider, "bp")
	lmp := l.AddEntity(LastMileProvider, "lmp")
	csp := l.AddEntity(ContentProvider, "csp")
	cust := l.AddEntity(Customer, "alice")

	illegal := []struct {
		name     string
		from, to EntityID
		kind     FlowKind
	}{
		{"BP pays POC lease", bp, poc, LinkLease},
		{"customer pays POC", cust, poc, POCAccess},
		{"LMP pays customer", lmp, cust, LMPAccess},
		{"CSP pays customer service", csp, cust, ServiceFee},
		{"POC pays LMP", poc, lmp, POCAccess},
		{"termination fee under NN terms", csp, lmp, TerminationFee},
	}
	for _, f := range illegal {
		if err := l.Pay(f.from, f.to, f.kind, 10, ""); err == nil {
			t.Errorf("%s: accepted", f.name)
		}
	}
	if err := l.Pay(cust, csp, ServiceFee, -5, ""); err == nil {
		t.Error("negative payment accepted")
	}
	if err := l.Pay(99, csp, ServiceFee, 5, ""); err == nil {
		t.Error("unknown payer accepted")
	}
	if err := l.Pay(cust, 99, ServiceFee, 5, ""); err == nil {
		t.Error("unknown payee accepted")
	}
	if err := l.Pay(cust, csp, FlowKind(42), 5, ""); err == nil {
		t.Error("unknown flow kind accepted")
	}
}

func TestTerminationFeesOnlyWhenAllowed(t *testing.T) {
	l := &Ledger{AllowTerminationFees: true}
	lmp := l.AddEntity(LastMileProvider, "lmp")
	csp := l.AddEntity(ContentProvider, "csp")
	if err := l.Pay(csp, lmp, TerminationFee, 10, "UR counterfactual"); err != nil {
		t.Fatalf("UR ledger rejected termination fee: %v", err)
	}
	if err := l.Pay(lmp, csp, TerminationFee, 10, ""); err == nil {
		t.Fatal("reverse termination fee accepted")
	}
}

func TestBalancesAndConservation(t *testing.T) {
	l := &Ledger{}
	poc := l.AddEntity(POC, "poc")
	bp := l.AddEntity(BandwidthProvider, "bp")
	lmp := l.AddEntity(LastMileProvider, "lmp")
	if err := l.Pay(poc, bp, LinkLease, 100, ""); err != nil {
		t.Fatal(err)
	}
	if err := l.Pay(lmp, poc, POCAccess, 130, ""); err != nil {
		t.Fatal(err)
	}
	if got := l.Balance(poc, -1); got != 30 {
		t.Fatalf("POC balance = %v, want 30", got)
	}
	if got := l.POCBalance(-1); got != 30 {
		t.Fatalf("POCBalance = %v, want 30", got)
	}
	if got := l.Balance(bp, -1); got != 100 {
		t.Fatalf("BP balance = %v, want 100", got)
	}
	if c := l.Conservation(); c != 0 {
		t.Fatalf("conservation = %v, want 0", c)
	}
}

func TestEpochScoping(t *testing.T) {
	l := &Ledger{}
	poc := l.AddEntity(POC, "poc")
	lmp := l.AddEntity(LastMileProvider, "lmp")
	if err := l.Pay(lmp, poc, POCAccess, 10, ""); err != nil {
		t.Fatal(err)
	}
	l.CloseEpoch()
	if err := l.Pay(lmp, poc, POCAccess, 25, ""); err != nil {
		t.Fatal(err)
	}
	if got := l.POCBalance(0); got != 10 {
		t.Fatalf("epoch 0 = %v, want 10", got)
	}
	if got := l.POCBalance(1); got != 25 {
		t.Fatalf("epoch 1 = %v, want 25", got)
	}
	if got := l.POCBalance(-1); got != 35 {
		t.Fatalf("all epochs = %v, want 35", got)
	}
	if tot := l.TotalsByKind(1)[POCAccess]; tot != 25 {
		t.Fatalf("epoch 1 totals = %v, want 25", tot)
	}
	if tot := l.TotalsByKind(-1)[POCAccess]; tot != 35 {
		t.Fatalf("totals = %v, want 35", tot)
	}
}

func TestKindStrings(t *testing.T) {
	if POC.String() != "POC" || Customer.String() != "customer" || EntityKind(99).String() == "" {
		t.Fatal("EntityKind strings")
	}
	if LinkLease.String() != "link-lease" || FlowKind(99).String() == "" {
		t.Fatal("FlowKind strings")
	}
}

func TestPlans(t *testing.T) {
	if got := (FlatPlan{Price: 50}).Charge(1e9); got != 50 {
		t.Fatalf("flat = %v", got)
	}
	if got := (UsagePlan{PerGB: 0.1}).Charge(250); math.Abs(got-25) > 1e-12 {
		t.Fatalf("usage = %v", got)
	}
	if got := (UsagePlan{PerGB: 0.1}).Charge(-5); got != 0 {
		t.Fatalf("negative usage = %v", got)
	}
	tiered := TieredPlan{Base: 30, IncludedGB: 100, OveragePer: 0.2}
	if got := tiered.Charge(80); got != 30 {
		t.Fatalf("tiered under = %v", got)
	}
	if got := tiered.Charge(150); math.Abs(got-40) > 1e-12 {
		t.Fatalf("tiered over = %v", got)
	}
	for _, p := range []Plan{FlatPlan{1}, UsagePlan{1}, tiered} {
		if p.Describe() == "" {
			t.Fatal("empty description")
		}
	}
}

func TestBreakEvenUsagePlan(t *testing.T) {
	p, err := BreakEvenUsagePlan(1000, 10000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.PerGB-0.105) > 1e-12 {
		t.Fatalf("per GB = %v, want 0.105", p.PerGB)
	}
	for _, bad := range []func() error{
		func() error { _, err := BreakEvenUsagePlan(1000, 0, 0); return err },
		func() error { _, err := BreakEvenUsagePlan(1000, 100, -0.1); return err },
		func() error { _, err := BreakEvenUsagePlan(1000, 100, 1); return err },
		func() error { _, err := BreakEvenUsagePlan(-1, 100, 0); return err },
		func() error { _, err := BreakEvenUsagePlan(math.Inf(1), 100, 0); return err },
	} {
		if bad() == nil {
			t.Fatal("expected error")
		}
	}
}

// Property: conservation holds for any sequence of legal payments.
func TestQuickConservation(t *testing.T) {
	f := func(amounts []uint16) bool {
		l := &Ledger{}
		poc := l.AddEntity(POC, "poc")
		bp := l.AddEntity(BandwidthProvider, "bp")
		lmp := l.AddEntity(LastMileProvider, "lmp")
		cust := l.AddEntity(Customer, "u")
		csp := l.AddEntity(ContentProvider, "csp")
		for i, a := range amounts {
			amt := float64(a)
			switch i % 4 {
			case 0:
				_ = l.Pay(poc, bp, LinkLease, amt, "")
			case 1:
				_ = l.Pay(lmp, poc, POCAccess, amt, "")
			case 2:
				_ = l.Pay(cust, lmp, LMPAccess, amt, "")
			case 3:
				_ = l.Pay(cust, csp, ServiceFee, amt, "")
			}
			if i%5 == 4 {
				l.CloseEpoch()
			}
		}
		return math.Abs(l.Conservation()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
