package poc

import (
	"math"
	"testing"
)

func TestNewScenarioValidation(t *testing.T) {
	if _, err := NewScenario(ScenarioOptions{Scale: -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := NewScenario(ScenarioOptions{Scale: 2}); err == nil {
		t.Fatal("scale > 1 accepted")
	}
	if _, err := NewScenario(ScenarioOptions{Scale: math.NaN()}); err == nil {
		t.Fatal("NaN scale accepted")
	}
}

func TestNewScenarioSmall(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Network.BPs) != 20 {
		t.Fatalf("BPs = %d", len(s.Network.BPs))
	}
	if len(s.Bids) != 20 {
		t.Fatalf("bids = %d", len(s.Bids))
	}
	if s.TM.Size() != len(s.Network.Routers) {
		t.Fatal("TM size mismatch")
	}
	if len(s.Virtual) == 0 {
		t.Fatal("no virtual links")
	}
	s2, err := NewScenario(ScenarioOptions{Scale: 0.3, NoVirtualLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Virtual) != 0 {
		t.Fatal("virtual links present despite NoVirtualLinks")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	a, err := NewScenario(ScenarioOptions{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenario(ScenarioOptions{Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Network.Links) != len(b.Network.Links) {
		t.Fatal("nondeterministic link count")
	}
	if math.Abs(a.TM.Total()-b.TM.Total()) > 1e-9 {
		t.Fatal("nondeterministic traffic matrix")
	}
}

func TestPaperScaleTopology(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 4674 logical links across 20 BPs with shares
	// roughly 2%–12%. Our synthetic zoo yields 4729 (±1.2%).
	n := 0
	for _, l := range s.Network.Links {
		if l.BP >= 0 {
			n++
		}
	}
	if n < 4400 || n > 5000 {
		t.Fatalf("logical links = %d, want ~4674", n)
	}
	shares := s.Network.BPShare()
	for i, sh := range shares {
		if sh < 0.005 || sh > 0.15 {
			t.Fatalf("BP %d share %.3f outside the paper's band", i, sh)
		}
	}
}

func TestEndToEndOperator(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Scale: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	op, res, err := s.Deploy(Constraint1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("empty selection")
	}
	if _, err := op.AttachLMP("lmp-east", 0, PeeringPolicy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := op.AttachCSP("megaflix", len(s.Network.Routers)/2); err != nil {
		t.Fatal(err)
	}
	fl, err := op.StartFlow("megaflix", "lmp-east", 2, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Allocated <= 0 {
		t.Fatal("no allocation")
	}
	rep, err := op.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Revenue <= 0 || rep.LeaseCost <= 0 {
		t.Fatalf("billing degenerate: %+v", rep)
	}
	if rep.POCNet < 0 {
		t.Fatalf("nonprofit lost money: %v", rep.POCNet)
	}
}

func TestEconAPIRegimes(t *testing.T) {
	d := Demand(uniformDemand{100})
	nn, err := EvaluateRegime(d, RegimeNN, nil)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := EvaluateRegime(d, RegimeURUnilateral, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nn.Welfare <= uni.Welfare {
		t.Fatalf("W_NN=%v <= W_UR=%v", nn.Welfare, uni.Welfare)
	}
	if NBSFee(100, 0.2, 50) != 45 {
		t.Fatal("NBSFee mismatch")
	}
}

// uniformDemand implements Demand locally to prove the interface is
// usable outside the internal packages.
type uniformDemand struct{ high float64 }

func (u uniformDemand) F(v float64) float64 {
	switch {
	case v <= 0:
		return 0
	case v >= u.high:
		return 1
	default:
		return v / u.high
	}
}
func (u uniformDemand) Density(v float64) float64 {
	if v < 0 || v > u.high {
		return 0
	}
	return 1 / u.high
}
func (u uniformDemand) Max() float64 { return u.high }

func TestAuditPolicyAPI(t *testing.T) {
	if vs := AuditPolicy(PeeringPolicy{LMP: "x"}); len(vs) != 0 {
		t.Fatalf("clean policy flagged: %v", vs)
	}
}
