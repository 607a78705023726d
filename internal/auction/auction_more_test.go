package auction

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// parallelNet builds n parallel links between two routers, one per
// BP, all 10 Gbps / 100 km.
func parallelNet(n int) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 2)},
		Routers: []int{0, 1},
	}
	for i := 0; i < n; i++ {
		p.BPs = append(p.BPs, topo.BP{Name: "bp", CostMult: 1})
		p.Links = append(p.Links, topo.LogicalLink{
			ID: i, BP: i, A: 0, B: 1, Capacity: 10, DistanceKm: 100,
		})
	}
	return p
}

func parallelInstance(prices []float64, demand float64) *Instance {
	p := parallelNet(len(prices))
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, demand)
	in := &Instance{Network: p, TM: tm, Constraint: provision.Constraint1}
	for i, price := range prices {
		in.Bids = append(in.Bids, Bid{BP: i, Links: []int{i},
			Cost: AdditiveCost([]int{i}, fixedPrice(price))})
	}
	return in
}

// With parallel identical links, the auction must select the cheapest
// subset that covers the demand and pay each winner up to the
// cheapest loser's price — the textbook (K+1)-price outcome.
func TestParallelLinksKPlusOnePrice(t *testing.T) {
	in := parallelInstance([]float64{10, 20, 30, 40}, 15) // needs 2 links
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected[0] || !res.Selected[1] {
		t.Fatalf("selected = %v, want links 0 and 1", res.Selected)
	}
	if res.TotalCost != 30 {
		t.Fatalf("C(SL) = %v, want 30", res.TotalCost)
	}
	// Pivot for BP0: without it the selection is {1,2} at 50 → P0 = 10 + (50−30) = 30.
	if res.Payments[0] != 30 {
		t.Fatalf("P_0 = %v, want 30", res.Payments[0])
	}
	// Same replacement logic for BP1.
	if res.Payments[1] != 30 {
		t.Fatalf("P_1 = %v, want 30", res.Payments[1])
	}
	if res.Payments[2] != 0 || res.Payments[3] != 0 {
		t.Fatalf("losers paid: %v", res.Payments)
	}
}

// TestFailedCounterfactualExportWorkerInvariant: when a counterfactual
// fails (A(OL−L_a) empty) the auction fails, but what it already
// recorded stays in the registry — and a pocd that journaled the failed
// reauction replays it on a different core count. Every counterfactual
// must therefore run whatever the others return: the error names the
// lowest failing BP and the export is byte-identical for any Workers.
func TestFailedCounterfactualExportWorkerInvariant(t *testing.T) {
	for _, tc := range []struct {
		name    string
		caps    []float64 // per-link capacity, priced 10, 20, ... in order
		demand  float64
		failing string
	}{
		// All four links are needed: every BP is irreplaceable.
		{"every BP irreplaceable", []float64{10, 10, 10, 10}, 35, "A(OL−L_0) empty"},
		// SL = {0,2,3,4}; link 1 covers for link 0 but not for a 10 Gbps
		// one, so BP 0's counterfactual succeeds and BPs 2–4 fail.
		{"first needed BP replaceable", []float64{5, 5, 10, 10, 10}, 31, "A(OL−L_2) empty"},
	} {
		var base []byte
		var baseErr string
		for _, workers := range []int{1, 2, 4} {
			prices := make([]float64, len(tc.caps))
			for i := range prices {
				prices[i] = 10 * float64(i+1)
			}
			in := parallelInstance(prices, tc.demand)
			for i, c := range tc.caps {
				in.Network.Links[i].Capacity = c
			}
			in.Workers = workers
			in.Obs = obs.New()
			_, err := in.Run()
			if err == nil || !strings.Contains(err.Error(), tc.failing) {
				t.Fatalf("%s, workers %d: err = %v, want %s", tc.name, workers, err, tc.failing)
			}
			out, jerr := in.Obs.ExportJSON()
			if jerr != nil {
				t.Fatal(jerr)
			}
			if base == nil {
				base, baseErr = out, err.Error()
				continue
			}
			if err.Error() != baseErr {
				t.Fatalf("%s, workers %d: error %q, workers 1 said %q", tc.name, workers, err, baseErr)
			}
			if !bytes.Equal(out, base) {
				t.Fatalf("%s: export differs between workers 1 and %d:\n%s\n---\n%s", tc.name, workers, base, out)
			}
		}
	}
}

func TestMaxChecksVariantsAgreeOnSmallInstance(t *testing.T) {
	var costs []float64
	for _, mc := range []int{-1, 0, 24} {
		in := parallelInstance([]float64{10, 20, 30, 40}, 15)
		in.MaxChecks = mc
		res, err := in.Run()
		if err != nil {
			t.Fatalf("MaxChecks %d: %v", mc, err)
		}
		costs = append(costs, res.TotalCost)
	}
	// Constructive (-1) may keep extra links; shave and refine+shave
	// must both reach the 30 optimum, and never beat it.
	if costs[1] != 30 || costs[2] != 30 {
		t.Fatalf("costs = %v", costs)
	}
	if costs[0] < 30 {
		t.Fatalf("constructive beat the optimum: %v", costs[0])
	}
}

func TestAggregatePaymentsCoverCosts(t *testing.T) {
	// IR in aggregate: Σ P_a >= Σ C_a(SL_a) = C(SL) − virtual cost.
	in := parallelInstance([]float64{10, 12, 14, 16, 18}, 25)
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sumP, sumC float64
	for a := range res.Payments {
		sumP += res.Payments[a]
		sumC += res.BPCost[a]
	}
	if sumP < sumC-1e-9 {
		t.Fatalf("payments %v below costs %v", sumP, sumC)
	}
	if math.Abs(sumC+res.VirtualCost-res.TotalCost) > 1e-9 {
		t.Fatalf("cost accounting broken: %v + %v != %v", sumC, res.VirtualCost, res.TotalCost)
	}
}

func TestRunFigure2TopBPs(t *testing.T) {
	p := parallelNet(6)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 15)
	var bids []Bid
	for i := 0; i < 6; i++ {
		bids = append(bids, Bid{BP: i, Links: []int{i},
			Cost: AdditiveCost([]int{i}, fixedPrice(float64(10*(i+1))))})
	}
	res, err := RunFigure2(Figure2Config{
		Network: p, TM: tm, Bids: bids,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Six BPs offer links; Figure 2 reports the five largest.
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// Rows carry the per-constraint PoB of the largest-share BPs.
	for _, row := range res.Rows {
		if row.Share <= 0 {
			t.Fatalf("row share = %v", row.Share)
		}
	}
}

func TestRunFigure2PropagatesErrors(t *testing.T) {
	p := parallelNet(1) // single BP: A(OL−L_0) empty
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 5)
	_, err := RunFigure2(Figure2Config{
		Network: p, TM: tm,
		Bids: []Bid{{BP: 0, Links: []int{0}, Cost: AdditiveCost([]int{0}, fixedPrice(10))}},
	})
	if err == nil {
		t.Fatal("expected error for irreplaceable BP")
	}
}

func TestNonAdditivePricingAffectsSelection(t *testing.T) {
	// BP0 offers two links with a steep bundle discount; BP1 two
	// additive links. Demand needs two links. The discounted bundle
	// (30×2×0.7 = 42) beats every alternative pair (25+25 = 50,
	// 30+25 = 55).
	p := parallelNet(4)
	p.Links[0].BP = 0
	p.Links[1].BP = 0
	p.Links[2].BP = 1
	p.Links[3].BP = 1
	p.BPs = p.BPs[:2]
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 15)
	in := &Instance{
		Network: p, TM: tm, Constraint: provision.Constraint1,
		Bids: []Bid{
			{BP: 0, Links: []int{0, 1}, Cost: VolumeDiscountCost([]int{0, 1}, fixedPrice(30), 0.3, 0.3)},
			{BP: 1, Links: []int{2, 3}, Cost: AdditiveCost([]int{2, 3}, fixedPrice(25))},
		},
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalCost-42) > 1e-9 {
		t.Fatalf("C(SL) = %v, want discounted bundle at 42", res.TotalCost)
	}
	if !res.Selected[0] || !res.Selected[1] || res.Selected[2] || res.Selected[3] {
		t.Fatalf("selected = %v, want BP0's bundle", res.Selected)
	}
}
