package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/market"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// ringNet: 4 routers in a ring plus a chord; each link owned by its
// own BP so VCG alternatives exist.
func ringNet() *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 4)},
		Routers: []int{0, 1, 2, 3},
	}
	for i := 0; i < 5; i++ {
		p.BPs = append(p.BPs, topo.BP{Name: "bp", CostMult: 1})
	}
	add := func(bp, a, b int, dist float64) {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: bp, A: a, B: b, Capacity: 100, DistanceKm: dist,
		})
	}
	add(0, 0, 1, 100)
	add(1, 1, 2, 100)
	add(2, 2, 3, 100)
	add(3, 3, 0, 100)
	add(4, 0, 2, 250)
	return p
}

func ringTM() *traffic.Matrix {
	tm := traffic.NewMatrix(4)
	tm.Set(0, 2, 20)
	tm.Set(2, 0, 20)
	tm.Set(1, 3, 10)
	tm.Set(3, 1, 10)
	return tm
}

func newPOC(t *testing.T) *POC {
	t.Helper()
	net := ringNet()
	p, err := New(Config{
		Network:       net,
		TM:            ringTM(),
		Constraint:    provision.Constraint1,
		ReserveMargin: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func submitAllBids(t *testing.T, p *POC, net *topo.POCNetwork) {
	t.Helper()
	for b := range net.BPs {
		links := net.LinksOfBP(b)
		price := func(id int) float64 { return 100 * net.Links[id].DistanceKm / 100 }
		if err := p.SubmitBid(auction.Bid{BP: b, Links: links, Cost: auction.AdditiveCost(links, price)}); err != nil {
			t.Fatal(err)
		}
	}
}

// lifecycle runs bidding → auction → activation and returns the POC.
func activePOC(t *testing.T) *POC {
	t.Helper()
	p := newPOC(t)
	submitAllBids(t, p, p.cfg.Network)
	if _, err := p.RunAuction(); err != nil {
		t.Fatal(err)
	}
	if err := p.Activate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := New(Config{Network: ringNet()}); err == nil {
		t.Fatal("nil TM accepted")
	}
	if _, err := New(Config{Network: ringNet(), TM: ringTM(), ReserveMargin: 1}); err == nil {
		t.Fatal("bad reserve margin accepted")
	}
}

func TestLifecycleOrderEnforced(t *testing.T) {
	p := newPOC(t)
	if err := p.Activate(); err == nil {
		t.Fatal("activate before auction accepted")
	}
	if _, err := p.RunAuction(); err == nil {
		t.Fatal("auction with no bids accepted")
	}
	if _, err := p.AttachLMP("l", 0, peering.Policy{}); err == nil {
		t.Fatal("attach before active accepted")
	}
	if _, err := p.AttachCSP("c", 0); err == nil {
		t.Fatal("attach before active accepted")
	}
	if _, err := p.StartFlow("a", "b", 1, netsim.BestEffort); err == nil {
		t.Fatal("flow before active accepted")
	}
	if _, err := p.BillEpoch(60); err == nil {
		t.Fatal("billing before active accepted")
	}

	submitAllBids(t, p, p.cfg.Network)
	if _, err := p.RunAuction(); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBid(auction.Bid{}); err == nil {
		t.Fatal("bid after auction accepted")
	}
	if err := p.AddVirtualLinks(nil); err == nil {
		t.Fatal("virtual links after auction accepted")
	}
	if _, err := p.RunAuction(); err == nil {
		t.Fatal("double auction accepted")
	}
	if err := p.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Activate(); err == nil {
		t.Fatal("double activation accepted")
	}
}

func TestSubmitBidValidation(t *testing.T) {
	p := newPOC(t)
	net := p.cfg.Network
	links := net.LinksOfBP(0)
	bid := auction.Bid{BP: 0, Links: links, Cost: auction.AdditiveCost(links[:1], func(int) float64 { return 1 })}
	if err := p.SubmitBid(bid); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBid(bid); err == nil {
		t.Fatal("duplicate BP bid accepted")
	}
	if err := p.SubmitBid(auction.Bid{BP: 99}); err == nil {
		t.Fatal("invalid bid accepted")
	}
}

func TestAuctionSelectsAndPays(t *testing.T) {
	p := activePOC(t)
	res := p.AuctionResult()
	if res == nil || len(res.Selected) == 0 {
		t.Fatal("no selection")
	}
	// Individual rationality holds for every BP.
	for a := range res.Payments {
		if res.Payments[a] < res.BPCost[a]-1e-9 {
			t.Fatalf("BP %d underpaid", a)
		}
	}
}

func TestAttachAndNeutrality(t *testing.T) {
	p := activePOC(t)
	// Clean policy attaches.
	if _, err := p.AttachLMP("lmp-a", 0, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	// Violating policy is refused at the door.
	bad := peering.Policy{Rules: []peering.Rule{{
		Direction: peering.Incoming,
		Match:     peering.Selector{Source: "megaflix"},
		Action:    peering.Block,
	}}}
	if _, err := p.AttachLMP("lmp-bad", 1, bad); err == nil {
		t.Fatal("violating LMP attached")
	}
	// CSP attaches without a policy.
	if _, err := p.AttachCSP("megaflix", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartFlow("lmp-a", "megaflix", 1, netsim.BestEffort); err != nil {
		t.Fatalf("compliant member refused a flow: %v", err)
	}
	// A stored policy that breaks the terms is found by enforcement,
	// and the violator can start no more flows.
	bad.LMP = "lmp-a"
	p.policies["lmp-a"] = bad
	vs := p.EnforceTerms()
	if len(vs) == 0 {
		t.Fatal("enforcement found no violations")
	}
	if _, err := p.StartFlow("lmp-a", "megaflix", 1, netsim.BestEffort); err == nil {
		t.Fatal("suspended member started a flow")
	}
}

func TestFlowsAndBilling(t *testing.T) {
	p := activePOC(t)
	if _, err := p.AttachLMP("lmp-a", 0, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AttachLMP("lmp-b", 2, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AttachCSP("megaflix", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartFlow("megaflix", "lmp-a", 8, netsim.BestEffort); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartFlow("megaflix", "lmp-b", 4, netsim.BestEffort); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartFlow("ghost", "lmp-a", 1, netsim.BestEffort); err == nil {
		t.Fatal("unknown member flow accepted")
	}
	if _, err := p.StartFlow("lmp-a", "ghost", 1, netsim.BestEffort); err == nil {
		t.Fatal("unknown member flow accepted")
	}

	rep, err := p.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeaseCost <= 0 {
		t.Fatal("no lease cost paid")
	}
	// 8 Gbps × 3600 s / 8 = 3600 GB from megaflix→lmp-a, 1800 to lmp-b.
	if math.Abs(rep.UsageGB["megaflix"]-5400) > 1e-6 {
		t.Fatalf("megaflix usage = %v, want 5400", rep.UsageGB["megaflix"])
	}
	if math.Abs(rep.UsageGB["lmp-a"]-3600) > 1e-6 {
		t.Fatalf("lmp-a usage = %v", rep.UsageGB["lmp-a"])
	}
	// Break-even: revenue covers cost with margin; POC never loses.
	if rep.POCNet < -1e-9 {
		t.Fatalf("POC lost money: %v", rep.POCNet)
	}
	cost := rep.LeaseCost + rep.VirtualCost
	if rep.POCNet > cost*0.05 {
		t.Fatalf("POC profit %v exceeds reserve policy (cost %v)", rep.POCNet, cost)
	}
	// Ledger conserves.
	if c := p.Ledger().Conservation(); math.Abs(c) > 1e-9 {
		t.Fatalf("conservation = %v", c)
	}

	// Second epoch: usage delta, not cumulative.
	rep2, err := p.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep2.UsageGB["megaflix"]-5400) > 1e-6 {
		t.Fatalf("second epoch usage = %v, want 5400 (delta)", rep2.UsageGB["megaflix"])
	}
	if rep2.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", rep2.Epoch)
	}
	if _, err := p.BillEpoch(0); err == nil {
		t.Fatal("zero-length epoch accepted")
	}
	// An epoch long enough to overflow the bill to ±Inf and NaN is
	// refused before the fabric ticks or the ledger moves: the next
	// epoch bills the same usage and keeps the epoch count.
	if _, err := p.BillEpoch(1e308); err == nil {
		t.Fatal("epoch of 1e308 s accepted")
	}
	rep3, err := p.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Epoch != 2 || math.Abs(rep3.UsageGB["megaflix"]-5400) > 1e-6 {
		t.Fatalf("epoch after a refused one: %d with usage %v, want 2 with 5400", rep3.Epoch, rep3.UsageGB["megaflix"])
	}
}

// TestBillEpochFoldsInMemberOrder: the usage total, the price per GB
// and the revenue of an epoch are float folds over the members, so
// their bits depend on the order of the terms. With 24 members and
// non-dyadic usage, a fold in Go's randomized map order lands on other
// bits in most runs. The report must equal a fold in member-name order,
// bit for bit, and be the same in 20 freshly built POCs.
func TestBillEpochFoldsInMemberOrder(t *testing.T) {
	const members = 24
	name := func(i int) string { return fmt.Sprintf("lmp-%02d", i%members) }
	bill := func() (*EpochReport, float64) {
		p := activePOC(t)
		reqs := make([]FlowRequest, members)
		for i := range members {
			if _, err := p.AttachLMP(name(i), i%4, peering.Policy{}); err != nil {
				t.Fatal(err)
			}
			reqs[i] = FlowRequest{Src: name(i), Dst: name(i + 5), Gbps: 0.1*float64(i+1) + 0.013/float64(i+3), Class: netsim.BestEffort}
		}
		ids, err := p.StartFlows(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(ids, -1) {
			t.Fatalf("flow admission failed: %v", ids)
		}
		rep, err := p.BillEpoch(3600)
		if err != nil {
			t.Fatal(err)
		}
		return rep, p.cfg.ReserveMargin
	}

	rep, margin := bill()
	names := make([]string, 0, len(rep.UsageGB))
	for n := range rep.UsageGB {
		names = append(names, n)
	}
	slices.Sort(names)
	total := 0.0
	for _, n := range names {
		total += rep.UsageGB[n]
	}
	plan, err := market.BreakEvenUsagePlan(rep.LeaseCost+rep.VirtualCost, total, margin)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PricePerGB != plan.PerGB {
		t.Fatalf("PricePerGB = %v, want %v from the usage total in member-name order", rep.PricePerGB, plan.PerGB)
	}
	revenue := 0.0
	for _, n := range names {
		charge := plan.Charge(rep.UsageGB[n])
		if rep.MemberCharge[n] != charge {
			t.Fatalf("MemberCharge[%s] = %v, want %v", n, rep.MemberCharge[n], charge)
		}
		revenue += charge
	}
	if rep.Revenue != revenue {
		t.Fatalf("Revenue = %v, want %v folded in member-name order", rep.Revenue, revenue)
	}
	for i := 0; i < 20; i++ {
		again, _ := bill()
		if again.PricePerGB != rep.PricePerGB || again.Revenue != rep.Revenue || !reflect.DeepEqual(again.MemberCharge, rep.MemberCharge) {
			t.Fatalf("POC %d bills PricePerGB %v, Revenue %v; the first billed %v, %v", i+1, again.PricePerGB, again.Revenue, rep.PricePerGB, rep.Revenue)
		}
	}
}

func TestBillEpochNoTraffic(t *testing.T) {
	p := activePOC(t)
	rep, err := p.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Revenue != 0 {
		t.Fatalf("revenue = %v with no traffic", rep.Revenue)
	}
	if rep.LeaseCost <= 0 {
		t.Fatal("lease cost should still accrue")
	}
	// The POC runs a deficit this epoch (documented behaviour: costs
	// accrue regardless of demand).
	if rep.POCNet >= 0 {
		t.Fatalf("POCNet = %v, want negative", rep.POCNet)
	}
}

func TestFigure1Structure(t *testing.T) {
	// Every flow in the active POC follows Figure 1: LMP/CSP edge →
	// POC fabric → LMP edge. Verify endpoints are attachments and the
	// path stays on selected links.
	p := activePOC(t)
	p.AttachLMP("lmp-a", 0, peering.Policy{})
	p.AttachLMP("lmp-b", 2, peering.Policy{})
	fl, err := p.StartFlow("lmp-a", "lmp-b", 5, netsim.BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	sel := p.AuctionResult().Selected
	for _, l := range fl.Links {
		if !sel[l] {
			t.Fatalf("flow uses unselected link %d", l)
		}
	}
	ep, err := p.Fabric().Endpoint(fl.Src)
	if err != nil || ep.Kind != netsim.LMPEndpoint {
		t.Fatalf("src endpoint = %+v, %v", ep, err)
	}
}

func TestLedgerEntitiesRegistered(t *testing.T) {
	p := activePOC(t)
	kinds := map[market.EntityKind]int{}
	for id := market.EntityID(0); ; id++ {
		e, err := p.Ledger().Entity(id)
		if err != nil {
			break
		}
		kinds[e.Kind]++
	}
	if kinds[market.BandwidthProvider] != 5 {
		t.Fatal("BP entities missing")
	}
	if kinds[market.POC] != 1 {
		t.Fatal("POC entity missing")
	}
	if kinds[market.ExternalISP] != 1 {
		t.Fatal("ISP entity missing")
	}
}

// TestSnapshotMembersFollowMembership: Snapshot shares one memoized
// member list between changes to the membership, and every change —
// an attach, a suspension, a reauction's fabric swap — shows in the
// next Snapshot exactly as a list built from scratch would.
func TestSnapshotMembersFollowMembership(t *testing.T) {
	p := activePOC(t)
	check := func(step string, want int) {
		t.Helper()
		got := p.Snapshot().Members
		if again := p.Snapshot().Members; len(got) > 0 && &again[0] != &got[0] {
			t.Errorf("%s: two snapshots with no change between them built two member lists", step)
		}
		p.members = nil
		if fresh := p.memberList(); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: snapshot members %+v, want %+v", step, got, fresh)
		}
		if len(got) != want {
			t.Errorf("%s: %d members, want %d", step, len(got), want)
		}
	}
	check("activate", 0)
	if _, err := p.AttachLMP("lmp-b", 2, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	check("attach lmp", 1)
	if _, err := p.AttachCSP("csp-a", 1); err != nil {
		t.Fatal(err)
	}
	check("attach csp", 2)
	p.policies["lmp-b"] = peering.Policy{LMP: "lmp-b", Rules: []peering.Rule{{
		Direction: peering.Incoming,
		Match:     peering.Selector{Source: "csp-a"},
		Action:    peering.Block,
	}}}
	if len(p.EnforceTerms()) == 0 {
		t.Fatal("enforcement found no violations")
	}
	check("suspend", 2)
	if !p.Snapshot().Members[1].Suspended {
		t.Fatal("suspended LMP not marked in the snapshot")
	}
	if _, err := p.Reauction(ringTM()); err != nil {
		t.Fatal(err)
	}
	check("reauction", 2)
	if _, err := p.BillEpoch(3600); err != nil {
		t.Fatal(err)
	}
	check("bill", 2)
}
