package chaos

import (
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

var gold = netsim.Class{Name: "gold", Weight: 4, Price: 10}

// ringNet is 4 routers in a ring plus both chords, each link its own
// BP, with distinct city coordinates so correlated cuts have
// geography to work with. Two chords (not one, as in the core-package
// fixture) keep the VCG pivot computation feasible after any single
// link is excluded — a reauction around a dead link needs surviving
// alternatives for every winner.
func ringNet() *topo.POCNetwork {
	cities := []topo.City{
		{Name: "a", Lat: 0, Lon: 0},
		{Name: "b", Lat: 0, Lon: 2},
		{Name: "c", Lat: 2, Lon: 2},
		{Name: "d", Lat: 2, Lon: 0},
	}
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: cities},
		Routers: []int{0, 1, 2, 3},
	}
	for i := 0; i < 6; i++ {
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
	add(5, 1, 3, 250)
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

// activePOC runs the lifecycle and starts a gold and a best-effort
// flow from router 0 to router 2 that together fill one ring path.
func activePOC(t *testing.T, workers int) (*core.POC, *netsim.Flow, *netsim.Flow) {
	t.Helper()
	net := ringNet()
	p, err := core.New(core.Config{
		Network:    net,
		TM:         ringTM(),
		Constraint: provision.Constraint1,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := range net.BPs {
		links := net.LinksOfBP(b)
		distance := func(id int) float64 { return net.Links[id].DistanceKm }
		if err := p.SubmitBid(auction.Bid{BP: b, Links: links, Cost: auction.AdditiveCost(links, distance)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.RunAuction(); err != nil {
		t.Fatal(err)
	}
	if err := p.Activate(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AttachLMP("lmp-a", 0, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AttachLMP("lmp-b", 2, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	gf, err := p.StartFlow("lmp-a", "lmp-b", 60, gold)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := p.StartFlow("lmp-a", "lmp-b", 30, netsim.BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if gf.Allocated != 60 || bf.Allocated != 30 {
		t.Fatalf("fixture flows not fully admitted: gold %v, be %v", gf.Allocated, bf.Allocated)
	}
	return p, gf, bf
}

func TestScheduleOrderingAndHorizon(t *testing.T) {
	var s Schedule
	s.Add(Event{Epoch: 3, Kind: CutLink, Link: 2})
	s.Add(Event{Epoch: 3, Kind: RepairLink, Link: 7})
	s.Add(Event{Epoch: 3, Kind: CutLink, Link: 1})
	s.Add(Event{Epoch: 1, Kind: CutBP, BP: 0})
	if s.Horizon() != 4 {
		t.Fatalf("horizon = %d, want 4", s.Horizon())
	}
	at := s.At(3)
	if len(at) != 3 {
		t.Fatalf("At(3) = %d events", len(at))
	}
	// Repairs first, then cuts by link ID.
	if at[0].Kind != RepairLink || at[1].Link != 1 || at[2].Link != 2 {
		t.Fatalf("At(3) order = %v", at)
	}
	if len(s.At(0)) != 0 {
		t.Fatal("At(0) non-empty")
	}

	bad := Schedule{Events: []Event{{Epoch: -1, Kind: CutLink}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative epoch accepted")
	}
	bad = Schedule{Events: []Event{{Epoch: 0, Kind: Kind(99)}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	links := []int{0, 1, 2, 3, 4}
	a := Random(42, 50, links, 0.1, 3)
	b := Random(42, 50, links, 0.1, 3)
	if len(a.Events) == 0 {
		t.Fatal("seed 42 generated no events")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Random(43, 50, links, 0.1, 3)
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(nil, Schedule{}, RecoveryConfig{}); err == nil {
		t.Fatal("nil POC accepted")
	}
	p, _, _ := activePOC(t, 0)
	bad := Schedule{Events: []Event{{Epoch: -1, Kind: CutLink}}}
	if _, err := New(p, bad, RecoveryConfig{}); err == nil {
		t.Fatal("invalid schedule accepted")
	}
	if _, err := New(p, Schedule{}, RecoveryConfig{Threshold: 2}); err == nil {
		t.Fatal("threshold 2 accepted")
	}
	if _, err := New(p, Schedule{}, RecoveryConfig{PenaltyRate: -1}); err == nil {
		t.Fatal("negative penalty rate accepted")
	}
	// A reauction policy needs an explicit anti-thrash window: the
	// zero value is honored (and rejected), not silently defaulted.
	if _, err := New(p, Schedule{}, RecoveryConfig{Policy: Reauction}); err == nil {
		t.Fatal("reauction policy with zero backoff accepted")
	}
	e, err := New(p, Schedule{}, RecoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Run(0) plays the schedule's horizon plus one settling epoch.
	rep, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 1 {
		t.Fatalf("empty schedule ran %d epochs, want 1", rep.Epochs)
	}
}

func TestSingleBPOutageRerouteOnly(t *testing.T) {
	p, gf, _ := activePOC(t, 0)
	bp := p.Network().Links[gf.Links[0]].BP

	e, err := New(p, SingleBPOutage(bp, 1, 3), RecoveryConfig{Policy: RerouteOnly})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Class("gold")
	if g == nil {
		t.Fatalf("no gold timeline in report:\n%s", rep)
	}
	if g.Delivered.Values[0] != 1 {
		t.Fatalf("gold delivered %v before the cut", g.Delivered.Values[0])
	}
	if g.Delivered.Min() >= 1 {
		t.Fatalf("gold never dipped under a BP outage:\n%s", rep)
	}
	if got := g.Delivered.RestoreTime(0.999); got != 2 {
		t.Fatalf("gold restore time = %d epochs, want 2 (cut at 1, repair at 3)\n%s", got, rep)
	}
	if g.Delivered.Values[4] != 1 {
		t.Fatalf("gold not restored after repair: %v", g.Delivered.Values)
	}
	if rep.Reauctions != 0 || rep.PenaltyIncome != 0 {
		t.Fatalf("reroute-only policy took economic actions: %+v", rep)
	}
	if rep.Timeline[1].Dropped+rep.Timeline[1].Degraded == 0 {
		t.Fatalf("outage epoch shows no impact: %+v", rep.Timeline[1])
	}
	if len(rep.Timeline[1].FailedLinks) == 0 {
		t.Fatal("outage epoch lists no failed links")
	}
	if rep.Timeline[4].FailedLinks != nil && len(rep.Timeline[4].FailedLinks) != 0 {
		t.Fatalf("links still failed after repair: %v", rep.Timeline[4].FailedLinks)
	}
}

func TestRecoveryLadderSelfHeals(t *testing.T) {
	p, gf, _ := activePOC(t, 0)
	link := gf.Links[0]
	bp := p.Network().Links[link].BP

	// Permanent outage: no scheduled repair. The ladder must recall
	// the dead link and reauction around it.
	var s Schedule
	s.Add(Event{Epoch: 1, Kind: CutBP, BP: bp})
	cfg := DefaultRecovery(Reauction)
	cfg.PenaltyRate = 0.5
	e, err := New(p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PenaltyIncome <= 0 {
		t.Fatalf("no recall penalty collected:\n%s", rep)
	}
	if rep.Reauctions != 1 {
		t.Fatalf("reauctions = %d, want 1\n%s", rep.Reauctions, rep)
	}
	if !p.Recalled(link) {
		t.Fatal("dead link not recalled")
	}
	// Recovery ran inside the outage epoch: gold service never shows
	// an epoch below full delivery.
	g := rep.Class("gold")
	if g.Delivered.Min() < 1 {
		t.Fatalf("gold dipped despite self-healing: %v\n%s", g.Delivered.Values, rep)
	}
	// The recalled link is gone from the new selection.
	if p.AuctionResult().Selected[link] {
		t.Fatal("reauction re-selected the recalled link")
	}
	if len(rep.Actions) < 2 {
		t.Fatalf("expected recall + reauction actions, got %v", rep.Actions)
	}
}

func TestFlappingLinkBoundedByBackoff(t *testing.T) {
	p, _, _ := activePOC(t, 0)
	// An impossible third flow keeps delivered fraction permanently
	// below threshold, so the controller wants to reauction every
	// epoch; the flapping link supplies constant churn. The backoff
	// window must bound reauctions regardless.
	if _, err := p.StartFlow("lmp-a", "lmp-b", 500, netsim.BestEffort); err != nil {
		t.Fatal(err)
	}
	const backoff = 3
	flap := FlappingLink(1, 0, 1, 1, 6) // cut/repair link 1 every epoch
	cfg := DefaultRecovery(Reauction)
	cfg.BackoffEpochs = backoff
	cfg.MaxReauctions = 100
	e, err := New(p, flap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	var reauctionEpochs []int
	for _, a := range rep.Actions {
		if a.Kind == "reauction" {
			reauctionEpochs = append(reauctionEpochs, a.Epoch)
		}
	}
	if len(reauctionEpochs) == 0 {
		t.Fatalf("no reauction attempts despite permanent degradation:\n%s", rep)
	}
	for i := 1; i < len(reauctionEpochs); i++ {
		if d := reauctionEpochs[i] - reauctionEpochs[i-1]; d < backoff {
			t.Fatalf("reauctions %d epochs apart, want >= %d (epochs %v)", d, backoff, reauctionEpochs)
		}
	}
	if max := 12/backoff + 1; len(reauctionEpochs) > max {
		t.Fatalf("%d reauctions in 12 epochs with backoff %d", len(reauctionEpochs), backoff)
	}
}

func TestMaxReauctionsCap(t *testing.T) {
	p, _, _ := activePOC(t, 0)
	if _, err := p.StartFlow("lmp-a", "lmp-b", 500, netsim.BestEffort); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRecovery(Reauction)
	cfg.BackoffEpochs = 1
	cfg.MaxReauctions = 2
	e, err := New(p, Schedule{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, a := range rep.Actions {
		if a.Kind == "reauction" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("reauction attempts = %d, want MaxReauctions cap of 2", n)
	}
}

func TestCorrelatedCutUsesGeography(t *testing.T) {
	p, gf, bf := activePOC(t, 0)
	// A cut centered on router 0's city severs every selected link
	// touching it; both fixture flows originate there.
	lat, lon := p.Network().RouterLatLon(0)
	var s Schedule
	s.Add(Event{Epoch: 1, Kind: Correlated, Lat: lat, Lon: lon, RadiusKm: 50})
	s.Add(Event{Epoch: 2, Kind: RepairCorrelated, Lat: lat, Lon: lon, RadiusKm: 50})
	e, err := New(p, s, RecoveryConfig{Policy: RerouteOnly})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline[1].Delivered != 0 {
		t.Fatalf("delivered %v with every source-side link cut\n%s", rep.Timeline[1].Delivered, rep)
	}
	if rep.Timeline[2].Delivered != 1 {
		t.Fatalf("delivered %v after correlated repair\n%s", rep.Timeline[2].Delivered, rep)
	}
	got, err := p.Fabric().Flow(gf.ID)
	if err != nil || got.Allocated != 60 {
		t.Fatalf("gold flow not re-upgraded: %+v (%v)", got, err)
	}
	if got, _ := p.Fabric().Flow(bf.ID); got.Allocated != 30 {
		t.Fatalf("best-effort flow not re-upgraded: %+v", got)
	}
}

// TestRepairBPDoesNotResurrectRecalledLinks pins the recall/repair
// invariant: once the recovery ladder recalls a failed link, a later
// scheduled RepairBP must not un-fail it — the POC no longer leases
// that capacity, so flows may never route over it again.
func TestRepairBPDoesNotResurrectRecalledLinks(t *testing.T) {
	p, gf, _ := activePOC(t, 0)
	link := gf.Links[0]
	bp := p.Network().Links[link].BP

	// BP outage at epoch 1, scheduled repair at epoch 3 — but the
	// recall policy takes the link back at epoch 1, before the repair.
	e, err := New(p, SingleBPOutage(bp, 1, 3), DefaultRecovery(Recall))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Recalled(link) {
		t.Fatalf("failed link %d was not recalled:\n%s", link, rep)
	}
	if rep.PenaltyIncome <= 0 {
		t.Fatalf("no recall penalty collected:\n%s", rep)
	}
	// The scheduled RepairBP at epoch 3 must leave the recalled link
	// failed on the fabric, for the rest of the run.
	if !p.Fabric().LinkFailed(link) {
		t.Fatalf("scheduled RepairBP resurrected recalled link %d:\n%s", link, rep)
	}
	for _, rec := range rep.Timeline[3:] {
		found := false
		for _, l := range rec.FailedLinks {
			if l == link {
				found = true
			}
		}
		if !found {
			t.Fatalf("epoch %d no longer lists recalled link %d as failed: %v",
				rec.Epoch, link, rec.FailedLinks)
		}
	}
	// No flow may be riding the recalled capacity.
	for _, fl := range p.Fabric().Flows() {
		for _, l := range fl.Links {
			if l == link {
				t.Fatalf("flow %d routed over recalled link %d", fl.ID, link)
			}
		}
	}
}

// TestZeroRecoveryValuesHonored pins that RecoveryConfig zero values
// mean what they say: Threshold 0 never escalates, and PenaltyRate 0
// is a penalty-free recall, not the defaults in disguise.
func TestZeroRecoveryValuesHonored(t *testing.T) {
	t.Run("threshold-zero-never-escalates", func(t *testing.T) {
		p, gf, _ := activePOC(t, 0)
		bp := p.Network().Links[gf.Links[0]].BP
		cfg := DefaultRecovery(Recall)
		cfg.Threshold = 0
		e, err := New(p, SingleBPOutage(bp, 1, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Actions) != 0 || rep.PenaltyIncome != 0 {
			t.Fatalf("threshold 0 still escalated: %+v", rep.Actions)
		}
		if p.Recalled(gf.Links[0]) {
			t.Fatal("threshold 0 still recalled a link")
		}
	})
	t.Run("penalty-rate-zero-recalls-free", func(t *testing.T) {
		p, gf, _ := activePOC(t, 0)
		link := gf.Links[0]
		bp := p.Network().Links[link].BP
		cfg := DefaultRecovery(Recall)
		cfg.PenaltyRate = 0
		var s Schedule
		s.Add(Event{Epoch: 1, Kind: CutBP, BP: bp}) // permanent outage
		e, err := New(p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Recalled(link) {
			t.Fatalf("dead link %d not recalled:\n%s", link, rep)
		}
		if rep.PenaltyIncome != 0 {
			t.Fatalf("penalty-free recall collected %v", rep.PenaltyIncome)
		}
	})
}

func TestReportByteIdenticalAcrossRunsAndWorkers(t *testing.T) {
	run := func(workers int) string {
		p, _, _ := activePOC(t, workers)
		sched := Random(7, 10, p.Fabric().SelectedLinks(), 0.3, 2)
		sched.Merge(SingleBPOutage(0, 2, 5))
		e, err := New(p, sched, DefaultRecovery(Reauction))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	base := run(1)
	if base != run(1) {
		t.Fatal("same seed and workers produced different reports")
	}
	if base != run(8) {
		t.Fatal("report differs across Workers settings")
	}
	if base == "" {
		t.Fatal("empty report")
	}
}
