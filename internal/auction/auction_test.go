package auction

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// twoPathNet builds the simplest meaningful auction: routers 0,1 with
// demand between them, BP0 offering a direct link priced c0, BP1
// offering a two-hop alternative via router 2 priced c1a+c1b.
func twoPathNet(cap0, cap1 float64) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 3)},
		BPs:     []topo.BP{{Name: "BP0", CostMult: 1}, {Name: "BP1", CostMult: 1}},
		Routers: []int{0, 1, 2},
	}
	p.Links = []topo.LogicalLink{
		{ID: 0, BP: 0, A: 0, B: 1, Capacity: cap0, DistanceKm: 100},
		{ID: 1, BP: 1, A: 0, B: 2, Capacity: cap1, DistanceKm: 100},
		{ID: 2, BP: 1, A: 2, B: 1, Capacity: cap1, DistanceKm: 100},
	}
	return p
}

func twoPathInstance(priceDirect, priceHopEach float64) *Instance {
	p := twoPathNet(10, 10)
	tm := traffic.NewMatrix(3)
	tm.Set(0, 1, 5)
	return &Instance{
		Network: p,
		Bids: []Bid{
			{BP: 0, Links: []int{0}, Cost: AdditiveCost([]int{0}, fixedPrice(priceDirect))},
			{BP: 1, Links: []int{1, 2}, Cost: AdditiveCost([]int{1, 2}, fixedPrice(priceHopEach))},
		},
		TM:         tm,
		Constraint: provision.Constraint1,
	}
}

func TestVCGTextbookOutcome(t *testing.T) {
	// Direct link costs 100; alternative costs 80+80=160. SL = {direct}.
	// Clarke payment to BP0 = C_0(SL_0) + C(SL_-0) - C(SL) = 100 + 160 - 100 = 160.
	in := twoPathInstance(100, 80)
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected[0] || res.Selected[1] || res.Selected[2] {
		t.Fatalf("selected = %v, want {0}", res.Selected)
	}
	if res.TotalCost != 100 {
		t.Fatalf("C(SL) = %v, want 100", res.TotalCost)
	}
	if res.Payments[0] != 160 {
		t.Fatalf("P_0 = %v, want 160", res.Payments[0])
	}
	if res.Payments[1] != 0 {
		t.Fatalf("P_1 = %v, want 0", res.Payments[1])
	}
	if got := res.PoB(0); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("PoB_0 = %v, want 0.6", got)
	}
	if res.PoB(1) != 0 {
		t.Fatalf("PoB_1 = %v, want 0", res.PoB(1))
	}
	if math.Abs(res.Surplus()-60) > 1e-12 {
		t.Fatalf("surplus = %v, want 60", res.Surplus())
	}
}

func TestVCGWinnerFlipsWithPrices(t *testing.T) {
	// Make the two-hop route cheaper: 40+40=80 < 100.
	in := twoPathInstance(100, 40)
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] || !res.Selected[1] || !res.Selected[2] {
		t.Fatalf("selected = %v, want {1,2}", res.Selected)
	}
	// P_1 = 80 + (100 - 80) = 100: pays up to the next-best alternative.
	if res.Payments[1] != 100 {
		t.Fatalf("P_1 = %v, want 100", res.Payments[1])
	}
	if res.Payments[0] != 0 {
		t.Fatalf("P_0 = %v, want 0", res.Payments[0])
	}
}

// Strategy-proofness: a BP reporting an inflated cost never increases
// its Clarke surplus P_a − trueCost_a when it keeps winning, and can
// only lose the win. We sweep reported costs around the true cost.
func TestStrategyProofness(t *testing.T) {
	trueCost := 100.0
	altCost := 160.0 // BP1's path
	for _, reported := range []float64{60, 80, 100, 120, 140, 159, 161, 200} {
		in := twoPathInstance(reported, altCost/2)
		res, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		var surplus float64
		if res.Selected[0] {
			surplus = res.Payments[0] - trueCost
		}
		if reported < altCost {
			// Still wins; surplus must equal truthful surplus (60).
			if math.Abs(surplus-(altCost-trueCost)) > 1e-9 {
				t.Fatalf("reported %v: surplus %v, want %v", reported, surplus, altCost-trueCost)
			}
		} else {
			// Overbid past the alternative: loses, surplus 0.
			if surplus != 0 {
				t.Fatalf("reported %v: surplus %v, want 0", reported, surplus)
			}
		}
	}
}

// Payments never fall below declared cost for selected links
// (individual rationality).
func TestIndividualRationality(t *testing.T) {
	in := twoPathInstance(100, 80)
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	for a := range res.Payments {
		if res.Payments[a] < res.BPCost[a]-1e-9 {
			t.Fatalf("BP %d paid %v below cost %v", a, res.Payments[a], res.BPCost[a])
		}
	}
}

func TestRunErrorsWithoutAlternative(t *testing.T) {
	// Only BP0 can serve the demand: A(OL − L_0) is empty, which the
	// paper assumes away and we must report as an error.
	p := twoPathNet(10, 10)
	tm := traffic.NewMatrix(3)
	tm.Set(0, 1, 5)
	in := &Instance{
		Network: p,
		Bids: []Bid{
			{BP: 0, Links: []int{0}, Cost: AdditiveCost([]int{0}, fixedPrice(100))},
		},
		TM:         tm,
		Constraint: provision.Constraint1,
	}
	if _, err := in.Run(); err == nil {
		t.Fatal("expected error when a BP is irreplaceable")
	}
}

func TestRunErrorsWhenInfeasible(t *testing.T) {
	in := twoPathInstance(100, 80)
	tm := traffic.NewMatrix(3)
	tm.Set(0, 1, 50) // exceeds all capacity
	in.TM = tm
	if _, err := in.Run(); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	good := twoPathInstance(100, 80)
	cases := []struct {
		name string
		mut  func(*Instance)
	}{
		{"nil network", func(in *Instance) { in.Network = nil }},
		{"nil tm", func(in *Instance) { in.TM = nil }},
		{"tm size", func(in *Instance) { in.TM = traffic.NewMatrix(7) }},
		{"bad constraint", func(in *Instance) { in.Constraint = 0 }},
		{"caller link cost", func(in *Instance) {
			in.RouteOpts.LinkCost = func(topo.LogicalLink) float64 { return 1 }
		}},
		{"foreign link", func(in *Instance) {
			in.Bids[0].Links = []int{1} // link 1 belongs to BP1
		}},
		{"double offer", func(in *Instance) {
			in.Bids = append(in.Bids, Bid{BP: 0, Links: []int{0}, Cost: AdditiveCost([]int{0}, fixedPrice(1))})
		}},
		{"nil cost", func(in *Instance) { in.Bids[0].Cost = nil }},
		{"nonzero empty set", func(in *Instance) {
			in.Bids[0].Cost = func(links []int) float64 { return 5 }
		}},
		{"virtual out of range", func(in *Instance) {
			in.Virtual = []VirtualLink{{LinkID: 99, ContractPrice: 1}}
		}},
		{"virtual double offer", func(in *Instance) {
			in.Virtual = []VirtualLink{{LinkID: 0, ContractPrice: 1}}
		}},
		{"negative contract", func(in *Instance) {
			id := in.Network.AddVirtualLink(0, 1, 10)
			in.Virtual = []VirtualLink{{LinkID: id, ContractPrice: -1}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := twoPathInstance(100, 80)
			c.mut(in)
			if _, err := in.Run(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
	if _, err := good.Run(); err != nil {
		t.Fatalf("good instance rejected: %v", err)
	}
}

func TestVirtualLinkCapsPayment(t *testing.T) {
	// Without the virtual link, BP0's payment is bounded by BP1's
	// expensive path (160). With a virtual link at contract price 120,
	// the alternative is cheaper, so BP0's payment falls to 120.
	in := twoPathInstance(100, 80)
	id := in.Network.AddVirtualLink(0, 1, 10)
	in.Virtual = []VirtualLink{{LinkID: id, ContractPrice: 120}}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected[0] {
		t.Fatalf("selected = %v, want direct link", res.Selected)
	}
	if res.Payments[0] != 120 {
		t.Fatalf("P_0 = %v, want 120 (capped by virtual alternative)", res.Payments[0])
	}
	if res.VirtualCost != 0 {
		t.Fatalf("virtual cost = %v, want 0 (not selected)", res.VirtualCost)
	}
}

func TestVirtualLinkSelectedWhenCheapest(t *testing.T) {
	in := twoPathInstance(100, 80)
	id := in.Network.AddVirtualLink(0, 1, 10)
	in.Virtual = []VirtualLink{{LinkID: id, ContractPrice: 30}}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selected[id] {
		t.Fatalf("selected = %v, want virtual link %d", res.Selected, id)
	}
	if res.VirtualCost != 30 {
		t.Fatalf("virtual cost = %v, want 30", res.VirtualCost)
	}
	// No BP payment: BPs not selected.
	if res.Payments[0] != 0 || res.Payments[1] != 0 {
		t.Fatalf("payments = %v, want zeros", res.Payments)
	}
}

func TestAdditiveCost(t *testing.T) {
	c := AdditiveCost([]int{1, 2}, func(id int) float64 { return float64(10 * id) })
	if got := c(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := c([]int{1, 2}); got != 30 {
		t.Fatalf("sum = %v", got)
	}
	if got := c([]int{3}); !math.IsInf(got, 1) {
		t.Fatalf("unoffered = %v, want +Inf", got)
	}
}

func TestVolumeDiscountCost(t *testing.T) {
	c := VolumeDiscountCost([]int{1, 2, 3}, fixedPrice(100), 0.05, 0.08)
	if got := c([]int{1}); got != 100 {
		t.Fatalf("single = %v", got)
	}
	if got := c([]int{1, 2}); math.Abs(got-190) > 1e-9 { // 5% off
		t.Fatalf("pair = %v, want 190", got)
	}
	if got := c([]int{1, 2, 3}); math.Abs(got-276) > 1e-9 { // capped at 8%
		t.Fatalf("triple = %v, want 276", got)
	}
	if got := c([]int{9}); !math.IsInf(got, 1) {
		t.Fatalf("unoffered = %v", got)
	}
}

func TestVolumeDiscountPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { VolumeDiscountCost(nil, nil, -1, 0.1) },
		func() { VolumeDiscountCost(nil, nil, 0.1, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLeasePricingScales(t *testing.T) {
	p := twoPathNet(10, 10)
	lp := DefaultLeasePricing()
	base := lp.Price(p, p.Links[0])
	if base <= 0 {
		t.Fatalf("price = %v", base)
	}
	// Double capacity costs more but less than double (economies of scale).
	big := p.Links[0]
	big.Capacity *= 2
	pb := lp.Price(p, big)
	if pb <= base || pb >= 2*base {
		t.Fatalf("2x capacity price %v vs base %v: want sublinear growth", pb, base)
	}
	// Longer link costs more.
	far := p.Links[0]
	far.DistanceKm *= 3
	if lp.Price(p, far) <= base {
		t.Fatal("distance should increase price")
	}
	// Virtual link prices use multiplier 1 and don't panic.
	v := p.Links[0]
	v.BP = topo.VirtualBP
	if lp.Price(p, v) != base {
		t.Fatal("virtual price should match CostMult=1 price")
	}
}

func TestStandardBidsCoverAllLinks(t *testing.T) {
	w := topo.DefaultWorld()
	nets := topo.GenerateZoo(w, topo.DefaultZooConfig())
	p := topo.BuildPOCNetwork(w, nets, 20, 4, 0)
	bids := StandardBids(p, DefaultLeasePricing())
	if len(bids) != len(p.BPs) {
		t.Fatalf("bids = %d, want %d", len(bids), len(p.BPs))
	}
	covered := 0
	for _, b := range bids {
		if err := b.Validate(p); err != nil {
			t.Fatal(err)
		}
		covered += len(b.Links)
		// Cost of all links is finite and positive.
		if c := b.Cost(b.Links); c <= 0 || math.IsInf(c, 1) {
			t.Fatalf("BP %d cost = %v", b.BP, c)
		}
	}
	if covered != len(p.Links) {
		t.Fatalf("bids cover %d links, want %d", covered, len(p.Links))
	}
}

// TestStandardBidsMatchPerBPScan: bucketing links by BP in one pass
// gives each BP the links, in the order, and at the prices that one
// LinksOfBP scan per BP gave it — on the zoo network (with a virtual
// link no BP owns) and on a synth one. Every bid prices its singletons,
// its whole offer and random subsets at the bits VolumeDiscountCost
// over a map from the same LeasePricing gives.
func TestStandardBidsMatchPerBPScan(t *testing.T) {
	w := topo.DefaultWorld()
	zoo := topo.BuildPOCNetwork(w, topo.GenerateZoo(w, topo.DefaultZooConfig()), 20, 4, 0)
	zoo.AddVirtualLink(0, 1, 10)
	synth := topo.GenerateSynth(topo.DefaultSynthConfig()).P
	lp := DefaultLeasePricing()
	rng := rand.New(rand.NewSource(7))
	for _, p := range []*topo.POCNetwork{zoo, synth} {
		for b, bid := range StandardBids(p, lp) {
			want := p.LinksOfBP(b)
			if bid.BP != b || bid.Links == nil || !slices.Equal(bid.Links, want) {
				t.Fatalf("BP %d: bid %d over links %v, scan gives %v", b, bid.BP, bid.Links, want)
			}
			prices := map[int]float64{}
			for _, id := range want {
				prices[id] = lp.Price(p, p.Links[id])
				if got := bid.Cost([]int{id}); got != prices[id] {
					t.Fatalf("BP %d: link %d bid at %v, priced %v", b, id, got, prices[id])
				}
			}
			ref := mapVolumeDiscountCost(prices, 0.01, 0.12)
			for i := 0; i < 20; i++ {
				sub := want
				if i > 0 {
					sub = slices.DeleteFunc(slices.Clone(want), func(int) bool { return rng.Intn(2) == 0 })
				}
				if got, want := bid.Cost(sub), ref(sub); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("BP %d: links %v bid at %v, map pricing %v", b, sub, got, want)
				}
			}
		}
	}
}

func TestCollusionGainsNonNegativeAndCapped(t *testing.T) {
	// Honest: BP0 wins at 160 (BP1's alternative). After BP1 withdraws
	// its unselected links, the alternative disappears... which would
	// make A(OL−L_0) empty; add a virtual link so the auction still
	// clears. The virtual link then caps BP0's payment exactly as §3.3
	// argues.
	in := twoPathInstance(100, 80)
	id := in.Network.AddVirtualLink(0, 1, 10)
	in.Virtual = []VirtualLink{{LinkID: id, ContractPrice: 500}}
	col, err := RunCollusion(in)
	if err != nil {
		t.Fatal(err)
	}
	if col.Honest.Payments[0] != 160 {
		t.Fatalf("honest P_0 = %v, want 160", col.Honest.Payments[0])
	}
	// With BP1 gone from the offer set, the only alternative is the
	// 500 virtual link: P_0 rises to 100 + 500 - 100 = 500.
	if col.Withdrawn.Payments[0] != 500 {
		t.Fatalf("withdrawn P_0 = %v, want 500", col.Withdrawn.Payments[0])
	}
	if g := col.Gain[0]; g != 340 {
		t.Fatalf("gain = %v, want 340", g)
	}
	if col.TotalGain() != 340 {
		t.Fatalf("total gain = %v", col.TotalGain())
	}
}

func TestResultPoBZeroCost(t *testing.T) {
	r := &Result{BPCost: []float64{0}, Payments: []float64{0}}
	if r.PoB(0) != 0 {
		t.Fatal("PoB with zero cost should be 0")
	}
}
