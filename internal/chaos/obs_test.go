package chaos

import (
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
)

// observedPOC is activePOC with a metrics registry threaded through
// the deployment, so the chaos engine picks it up via p.Observer().
func observedPOC(t *testing.T) (*core.POC, *obs.Registry, *netsim.Flow) {
	t.Helper()
	reg := obs.New()
	net := ringNet()
	p, err := core.New(core.Config{
		Network:    net,
		TM:         ringTM(),
		Constraint: provision.Constraint1,
		Obs:        reg,
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
	if _, err := p.StartFlow("lmp-a", "lmp-b", 30, netsim.BestEffort); err != nil {
		t.Fatal(err)
	}
	return p, reg, gf
}

// TestObsMatchesReport cross-checks the observability counters against
// the chaos engine's own Report: both views of the recovery ladder —
// recalls, penalty income, reauctions, per-epoch timelines — must
// agree exactly. A drift between them means one of the two ledgers is
// lying about what the engine did.
func TestObsMatchesReport(t *testing.T) {
	p, reg, gf := observedPOC(t)
	link := gf.Links[0]
	bp := p.Network().Links[link].BP

	// Permanent BP outage with the full ladder enabled: the engine must
	// escalate, recall the dead link and reauction around it.
	var s Schedule
	s.Add(Event{Epoch: 1, Kind: CutBP, BP: bp})
	cfg := DefaultRecovery(Reauction)
	cfg.PenaltyRate = 0.5
	e, err := New(p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 4
	rep, err := e.Run(epochs)
	if err != nil {
		t.Fatal(err)
	}

	recalls, reauctions := 0, 0
	for _, a := range rep.Actions {
		switch a.Kind {
		case "recall":
			recalls++
		case "reauction":
			reauctions++
		}
	}
	if recalls == 0 || reauctions == 0 {
		t.Fatalf("fixture did not exercise the ladder: %d recalls, %d reauctions\n%s",
			recalls, reauctions, rep)
	}

	ex := reg.Capture()
	if got := ex.Counters["chaos.recalls"]; got != int64(recalls) {
		t.Fatalf("chaos.recalls = %d, report shows %d recall actions", got, recalls)
	}
	if got := ex.Counters["chaos.reauctions.succeeded"]; got != int64(reauctions) {
		t.Fatalf("chaos.reauctions.succeeded = %d, report shows %d", got, reauctions)
	}
	if got := int64(rep.Reauctions); got != ex.Counters["chaos.reauctions.succeeded"] {
		t.Fatalf("Report.Reauctions = %d disagrees with counter %d",
			got, ex.Counters["chaos.reauctions.succeeded"])
	}
	if att := ex.Counters["chaos.reauctions.attempted"]; att < ex.Counters["chaos.reauctions.succeeded"] {
		t.Fatalf("attempted %d < succeeded %d", att, ex.Counters["chaos.reauctions.succeeded"])
	}
	// Exact float equality: both sides accumulate the identical penalty
	// values in the identical order.
	if got := ex.Floats["chaos.penalty_income"]; got != rep.PenaltyIncome {
		t.Fatalf("chaos.penalty_income = %v, report shows %v", got, rep.PenaltyIncome)
	}
	if got := ex.Counters["chaos.escalations"]; got < 1 {
		t.Fatalf("chaos.escalations = %d, want >= 1", got)
	}
	if got := ex.Counters["chaos.events.cut-bp"]; got != 1 {
		t.Fatalf("chaos.events.cut-bp = %d, want 1", got)
	}

	// Per-epoch timelines cover every simulated epoch, and delivered_min
	// matches the worst per-class delivery the report recorded.
	min := ex.Timelines["chaos.delivered_min"]
	if len(min) != epochs {
		t.Fatalf("delivered_min has %d entries, want %d", len(min), epochs)
	}
	failed := ex.Timelines["chaos.failed_links"]
	if len(failed) != epochs {
		t.Fatalf("failed_links has %d entries, want %d", len(failed), epochs)
	}
	for ep := 0; ep < epochs; ep++ {
		worst := 1.0
		for _, cl := range rep.Classes {
			if v := cl.Delivered.Values[ep]; v < worst {
				worst = v
			}
		}
		if min[ep] != worst {
			t.Fatalf("epoch %d: delivered_min %v, report worst class %v", ep, min[ep], worst)
		}
		if int(failed[ep]) != len(rep.Timeline[ep].FailedLinks) {
			t.Fatalf("epoch %d: failed_links %v, report shows %d",
				ep, failed[ep], len(rep.Timeline[ep].FailedLinks))
		}
	}
}
