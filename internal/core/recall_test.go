package core

import (
	"math"
	"testing"

	"github.com/public-option/poc/internal/market"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/peering"
)

// selectedLinkWithFlow returns a leased link carrying traffic between
// the two attached LMPs.
func selectedLinkWithFlow(t *testing.T, p *POC) (int, *netsim.Flow) {
	t.Helper()
	if _, err := p.AttachLMP("lmp-a", 0, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AttachLMP("lmp-b", 2, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	fl, err := p.StartFlow("lmp-a", "lmp-b", 5, netsim.BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Links) == 0 {
		t.Fatal("flow took no links")
	}
	return fl.Links[0], fl
}

func TestRecallReroutesAndPenalizes(t *testing.T) {
	p := activePOC(t)
	link, fl := selectedLinkWithFlow(t, p)
	bp := p.cfg.Network.Links[link].BP

	before := p.ledger.Balance(p.bpIDs[bp], -1)
	rep, err := p.RecallLink(link, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Link != link || rep.BP != bp {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Rerouted+rep.Degraded == 0 {
		t.Fatal("flow on the recalled link not reported")
	}
	if rep.Penalty <= 0 {
		t.Fatalf("penalty = %v, want > 0", rep.Penalty)
	}
	// Penalty = rate × monthly share.
	if math.Abs(rep.Penalty-0.5*rep.MonthlySaving) > 1e-9 {
		t.Fatalf("penalty %v != 0.5 × share %v", rep.Penalty, rep.MonthlySaving)
	}
	// BP paid the penalty.
	after := p.ledger.Balance(p.bpIDs[bp], -1)
	if math.Abs((before-after)-rep.Penalty) > 1e-9 {
		t.Fatalf("BP balance moved %v, want %v", before-after, rep.Penalty)
	}
	// The flow no longer uses the recalled link.
	got, err := p.Fabric().Flow(fl.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range got.Links {
		if l == link {
			t.Fatal("flow still uses recalled link")
		}
	}
}

func TestRecallValidation(t *testing.T) {
	p := activePOC(t)
	link, _ := selectedLinkWithFlow(t, p)
	if _, err := p.RecallLink(link, -1); err == nil {
		t.Fatal("negative penalty rate accepted")
	}
	// A rate whose penalty overflows to +Inf, refused before the
	// ledger moves: the recall below still succeeds.
	if _, err := p.RecallLink(link, 1e308); err == nil {
		t.Fatal("penalty rate 1e308 accepted")
	}
	if _, err := p.RecallLink(-1, 0); err == nil {
		t.Fatal("unknown link accepted")
	}
	// Find an unselected link, if any.
	for id := range p.cfg.Network.Links {
		if !p.auctionResult.Selected[id] {
			if _, err := p.RecallLink(id, 0); err == nil {
				t.Fatal("unleased link recall accepted")
			}
			break
		}
	}
	if _, err := p.RecallLink(link, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RecallLink(link, 0.5); err == nil {
		t.Fatal("double recall accepted")
	}
}

func TestRecallZeroPaymentShare(t *testing.T) {
	// A winner can be non-pivotal under the Clarke pivot rule and owe
	// nothing; recalling its link must then cost it nothing too.
	p := activePOC(t)
	link, _ := selectedLinkWithFlow(t, p)
	bp := p.cfg.Network.Links[link].BP
	p.auctionResult.Payments[bp] = 0

	before := p.ledger.Balance(p.bpIDs[bp], -1)
	rep, err := p.RecallLink(link, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Penalty != 0 || rep.MonthlySaving != 0 {
		t.Fatalf("penalty = %v, saving = %v, want 0 for zero payment share", rep.Penalty, rep.MonthlySaving)
	}
	if after := p.ledger.Balance(p.bpIDs[bp], -1); after != before {
		t.Fatalf("BP balance moved %v on a zero-share recall", before-after)
	}
	// The link is still recalled: flows rerouted, future bids exclude it.
	if !p.Recalled(link) {
		t.Fatal("link not marked recalled")
	}
}

func TestRecallAlreadyFailedLink(t *testing.T) {
	// Recalling a link that is already down on the fabric is the
	// recovery-ladder case: the BP takes back dead capacity, the POC
	// collects the penalty and stops paying, and no flow moves (they
	// were already rerouted when the link failed).
	p := activePOC(t)
	link, fl := selectedLinkWithFlow(t, p)
	bp := p.cfg.Network.Links[link].BP
	if changed := p.Fabric().FailLink(link); len(changed) == 0 {
		t.Fatal("failing the flow's link moved no flows")
	}

	before := p.ledger.Balance(p.bpIDs[bp], -1)
	rep, err := p.RecallLink(link, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != 0 || rep.Degraded != 0 {
		t.Fatalf("recall of a failed link reported flow movement: %+v", rep)
	}
	if rep.Penalty <= 0 {
		t.Fatalf("penalty = %v, want > 0", rep.Penalty)
	}
	if after := p.ledger.Balance(p.bpIDs[bp], -1); math.Abs((before-after)-rep.Penalty) > 1e-9 {
		t.Fatalf("BP balance moved %v, want %v", before-after, rep.Penalty)
	}
	// The earlier failure already rerouted the flow off the link.
	got, err := p.Fabric().Flow(fl.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range got.Links {
		if l == link {
			t.Fatal("flow still uses the failed, recalled link")
		}
	}
	// Double recall still rejected after the failure path.
	if _, err := p.RecallLink(link, 0.5); err == nil {
		t.Fatal("double recall accepted")
	}
}

func TestRecallReducesLeaseBilling(t *testing.T) {
	p := activePOC(t)
	link, _ := selectedLinkWithFlow(t, p)
	rep1, err := p.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	saving, err := p.RecallLink(link, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := p.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	const monthSeconds = 30 * 24 * 3600.0
	wantDrop := saving.MonthlySaving * 3600 / monthSeconds
	if math.Abs((rep1.LeaseCost-rep2.LeaseCost)-wantDrop) > 1e-6 {
		t.Fatalf("lease cost dropped %v, want %v", rep1.LeaseCost-rep2.LeaseCost, wantDrop)
	}
}

func TestRecallBeforeActive(t *testing.T) {
	p := newPOC(t)
	if _, err := p.RecallLink(0, 0); err == nil {
		t.Fatal("recall before activation accepted")
	}
}

func TestEdgeServiceLifecycle(t *testing.T) {
	p := activePOC(t)
	if _, err := p.AttachCSP("megaflix", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AttachLMP("lmp-a", 0, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	svc, err := p.OpenEdgeService("poc-cdn", 250)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenEdgeService("poc-cdn", 100); err == nil {
		t.Fatal("duplicate service accepted")
	}
	if err := p.DeployCache("poc-cdn", "megaflix", 2); err != nil {
		t.Fatal(err)
	}
	// Fee landed in the ledger.
	tot := p.Ledger().TotalsByKind(-1)[market.EdgeServiceFee]
	if tot != 250 {
		t.Fatalf("edge fees = %v, want 250", tot)
	}
	// Unknown service / member rejected.
	if err := p.DeployCache("nope", "megaflix", 2); err != nil {
		// expected
	} else {
		t.Fatal("unknown service accepted")
	}
	if err := p.DeployCache("poc-cdn", "ghost", 2); err == nil {
		t.Fatal("unknown member accepted")
	}
	// Delivery prefers the cache.
	origin := p.endpoints["megaflix"]
	consumer := p.endpoints["lmp-a"]
	d, err := svc.Serve("megaflix", origin, consumer, 1, netsim.BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if !d.FromCache {
		t.Fatal("delivery ignored the cache")
	}
}

func TestEdgeServiceBeforeActive(t *testing.T) {
	p := newPOC(t)
	if _, err := p.OpenEdgeService("cdn", 1); err == nil {
		t.Fatal("edge service before activation accepted")
	}
}
