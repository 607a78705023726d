package core

import (
	"reflect"
	"sort"
	"testing"

	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/traffic"
)

func TestReauctionValidation(t *testing.T) {
	p := newPOC(t)
	if _, err := p.Reauction(ringTM()); err == nil {
		t.Fatal("reauction before activation accepted")
	}
	a := activePOC(t)
	if _, err := a.Reauction(nil); err == nil {
		t.Fatal("nil TM accepted")
	}
	if _, err := a.Reauction(traffic.NewMatrix(99)); err == nil {
		t.Fatal("mismatched TM accepted")
	}
}

func TestReauctionMigratesFlows(t *testing.T) {
	p := activePOC(t)
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
	_ = fl

	// Double the demand between routers 0 and 2.
	tm := ringTM()
	tm.Set(0, 2, 40)
	tm.Set(2, 0, 40)
	rep, err := p.Reauction(tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result == nil || len(rep.Result.Selected) == 0 {
		t.Fatal("empty reauction result")
	}
	if rep.FlowsKept+rep.FlowsDegraded+rep.FlowsLost != 1 {
		t.Fatalf("flow accounting = %+v", rep)
	}
	if rep.FlowsLost != 0 {
		t.Fatal("flow lost despite larger provisioning")
	}
	// The migrated flow lives on the new fabric under the same members.
	if _, err := p.StartFlow("lmp-a", "lmp-b", 1, netsim.BestEffort); err != nil {
		t.Fatalf("post-migration flow failed: %v", err)
	}
	// Billing still works and reflects the new payments.
	if _, err := p.BillEpoch(3600); err != nil {
		t.Fatal(err)
	}
}

func TestReauctionExcludesRecalledLinks(t *testing.T) {
	p := activePOC(t)
	link, _ := selectedLinkWithFlow(t, p)
	if _, err := p.RecallLink(link, 0); err != nil {
		t.Fatal(err)
	}
	// A light matrix between multiply-connected routers keeps
	// A(OL−L_a) nonempty with one link recalled on the small ring
	// fixture (router 3 can become single-homed after the recall).
	tm := traffic.NewMatrix(4)
	tm.Set(0, 1, 5)
	tm.Set(1, 0, 5)
	rep, err := p.Reauction(tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Selected[link] {
		t.Fatal("reauction re-selected a recalled link")
	}
}

func TestReauctionUsageCountersReset(t *testing.T) {
	p := activePOC(t)
	if _, err := p.AttachLMP("lmp-a", 0, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AttachLMP("lmp-b", 2, peering.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartFlow("lmp-a", "lmp-b", 4, netsim.BestEffort); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BillEpoch(3600); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reauction(ringTM()); err != nil {
		t.Fatal(err)
	}
	rep, err := p.BillEpoch(3600)
	if err != nil {
		t.Fatal(err)
	}
	// One hour at 4 Gbps = 1800 GB per endpoint; double-billing or
	// negative deltas would show up here.
	if got := rep.UsageGB["lmp-a"]; got < 1700 || got > 1900 {
		t.Fatalf("post-reauction usage = %v, want ~1800", got)
	}
}

// TestReauctionMigrationOrder pins the migration's re-admission order
// (descending class weight, then admission order) and its accounting
// against a reference built the direct way: the old population from
// Flows(), sorted by (weight desc, Seq asc), admitted on a fresh
// fabric over the new selection and read back one Flow(id) at a time.
// Slots are recycled first, so flow IDs and admission order disagree,
// and the new fabric keeps, degrades and loses flows.
func TestReauctionMigrationOrder(t *testing.T) {
	p := activePOC(t)
	sites := []string{"lmp-a", "lmp-b", "lmp-c", "lmp-d"}
	for r, name := range sites {
		if _, err := p.AttachLMP(name, r, peering.Policy{}); err != nil {
			t.Fatal(err)
		}
	}
	gold := netsim.Class{Name: "gold", Weight: 3, Price: 2}
	var reqs []FlowRequest
	for i := 0; i < 24; i++ {
		class := netsim.BestEffort
		if i%2 == 1 {
			class = gold
		}
		src, dst := sites[1], sites[2]
		if i%3 == 2 {
			src, dst = sites[3], sites[0]
		}
		reqs = append(reqs, FlowRequest{Src: src, Dst: dst, Gbps: 6 + float64(i%5)*3, Class: class})
	}
	ids, err := p.StartFlows(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Recycle the low slots: the later admissions take smaller IDs.
	if n := p.Fabric().StopFlows(ids[:6]); n != 6 {
		t.Fatalf("stopped %d of 6", n)
	}
	if _, err := p.StartFlows(reqs[6:12]); err != nil {
		t.Fatal(err)
	}

	old := p.Fabric().Flows()
	sort.Slice(old, func(i, j int) bool {
		if old[i].Class.Weight != old[j].Class.Weight {
			return old[i].Class.Weight > old[j].Class.Weight
		}
		return old[i].Seq < old[j].Seq
	})
	endpoints := p.Fabric().Endpoints()

	// Demand over routers 0–2 only leases links 0–1 and 1–2: the 3→0
	// flows lose their path, and link 1–2 re-admits its flows gold
	// first.
	tm := traffic.NewMatrix(4)
	tm.Set(0, 1, 5)
	tm.Set(1, 0, 5)
	tm.Set(1, 2, 5)
	tm.Set(2, 1, 5)
	rep, err := p.Reauction(tm)
	if err != nil {
		t.Fatal(err)
	}

	ref := netsim.New(p.cfg.Network, rep.Result.Selected)
	for _, ep := range endpoints {
		if _, err := ref.Attach(ep.Name, ep.Kind, ep.Router); err != nil {
			t.Fatal(err)
		}
	}
	specs := make([]netsim.FlowSpec, len(old))
	for i, fl := range old {
		specs[i] = netsim.FlowSpec{Src: fl.Src, Dst: fl.Dst, Demand: fl.Demand, Class: fl.Class}
	}
	var kept, degraded, lost int
	var want []netsim.FlowSpec
	for i, id := range ref.StartFlows(specs) {
		nf, err := ref.Flow(id)
		switch {
		case id < 0 || err != nil:
			lost++
			continue
		case nf.Allocated >= old[i].Allocated-1e-9:
			kept++
		default:
			degraded++
		}
		want = append(want, specs[i])
	}
	if rep.FlowsKept != kept || rep.FlowsDegraded != degraded || rep.FlowsLost != lost {
		t.Fatalf("kept/degraded/lost = %d/%d/%d, reference %d/%d/%d",
			rep.FlowsKept, rep.FlowsDegraded, rep.FlowsLost, kept, degraded, lost)
	}
	if kept == 0 || degraded == 0 || lost == 0 {
		t.Fatalf("kept/degraded/lost = %d/%d/%d: want some of each", kept, degraded, lost)
	}

	var got []netsim.FlowSpec
	p.Fabric().RangeFlows(func(fl *netsim.Flow) bool {
		got = append(got, netsim.FlowSpec{Src: fl.Src, Dst: fl.Dst, Demand: fl.Demand, Class: fl.Class})
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("new fabric's admission order:\n got %v\nwant %v", got, want)
	}
	if got[0].Class != gold || got[len(got)-1].Class != netsim.BestEffort {
		t.Fatalf("migration did not re-admit the heavier class first: %v", got)
	}
}
