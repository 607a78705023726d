// Benchmarks: one per experiment in DESIGN.md §3 (E1–E12) plus the
// ablation benches of §5. The auction benches run on a reduced
// (Scale 0.35) instance so a full -bench=. sweep finishes in minutes;
// cmd/pocbench -scale 1 regenerates the paper-scale numbers.
package poc

import (
	"fmt"
	"sync"
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/econ"
	"github.com/public-option/poc/internal/edge"
	"github.com/public-option/poc/internal/interdomain"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/regimesim"
)

var (
	benchOnce sync.Once
	benchScen *Scenario
)

// benchScenario returns the shared reduced instance used by the
// auction benches.
func benchScenario(b *testing.B) *Scenario {
	b.Helper()
	benchOnce.Do(func() {
		s, err := NewScenario(ScenarioOptions{Scale: 0.35})
		if err != nil {
			panic(err)
		}
		benchScen = s
	})
	return benchScen
}

// E1 (Figure 2): one full VCG auction per constraint, including all
// counterfactual winner determinations.
func benchmarkAuction(b *testing.B, c Constraint) {
	s := benchScenario(b)
	var res *auction.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Instance(c, 0).Run()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	// ReportMetric outside the timed loop: calling it per iteration just
	// overwrites the same key b.N times and pollutes the hot loop.
	b.ReportMetric(res.TotalCost, "C(SL)")
	b.ReportMetric(float64(len(res.Selected)), "links")
	b.ReportMetric(res.Surplus(), "surplus")
	if res.Checks > 0 {
		b.ReportMetric(float64(res.CacheHits)/float64(res.Checks), "cache-hit-rate")
	}
}

func BenchmarkFigure2Constraint1(b *testing.B) { benchmarkAuction(b, Constraint1) }
func BenchmarkFigure2Constraint2(b *testing.B) { benchmarkAuction(b, Constraint2) }
func BenchmarkFigure2Constraint3(b *testing.B) { benchmarkAuction(b, Constraint3) }

// Observability overhead gate (DESIGN.md §8): the same Constraint-1
// auction with a metrics registry threaded through every layer.
// Compare against BenchmarkFigure2Constraint1 (nil registry — the
// instrumentation compiles to a nil check and must cost ~0%); the
// observed run must stay within 5% of it.
func BenchmarkFigure2Constraint1Observed(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := s.Instance(Constraint1, 0)
		inst.Obs = NewObserver() // fresh ledger per run, as pocsim does
		if _, err := inst.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// E2 (Figure 1): the fabric carries CSP→LMP flows edge to edge over
// the auctioned link set; measures a full attach/flow/bill cycle.
func BenchmarkFigure1Fabric(b *testing.B) {
	s := benchScenario(b)
	inst := s.Instance(Constraint1, 0)
	res, err := inst.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each operator runs its own lease lifecycle, auction included
		// (the auction alone is BenchmarkFigure2Constraint1), so the
		// bench covers activation + flows + billing on top of it.
		op, _, err := s.Deploy(Constraint1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := op.AttachLMP("lmp-a", 0, PeeringPolicy{}); err != nil {
			b.Fatal(err)
		}
		if _, err := op.AttachCSP("csp", len(s.Network.Routers)/2); err != nil {
			b.Fatal(err)
		}
		if _, err := op.StartFlow("csp", "lmp-a", 2, BestEffort); err != nil {
			b.Fatal(err)
		}
		if _, err := op.BillEpoch(3600); err != nil {
			b.Fatal(err)
		}
	}
	_ = res
}

var benchFamilies = []econ.Demand{
	econ.Uniform{High: 100},
	econ.Exponential{Mean: 30},
	econ.Pareto{Scale: 20, Alpha: 2.5},
	econ.Logistic{Mid: 50, S: 10},
}

// E3: NN-regime pricing and welfare across demand families.
func BenchmarkNNWelfare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range benchFamilies {
			out, err := econ.Evaluate(d, econ.NN, nil)
			if err != nil {
				b.Fatal(err)
			}
			if out.Welfare <= 0 {
				b.Fatal("degenerate welfare")
			}
		}
	}
}

// E4 (Lemma 1): p*(t) sweep.
func BenchmarkLemma1Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range benchFamilies {
			prev := -1.0
			for k := 0; k <= 10; k++ {
				p := econ.OptimalPrice(d, float64(k)*4)
				if p < prev-1e-6 {
					b.Fatal("Lemma 1 violated")
				}
				prev = p
			}
		}
	}
}

// E5: unilateral (double-marginalization) fee setting.
func BenchmarkUnilateralFees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range benchFamilies {
			if econ.UnilateralFee(d) < 0 {
				b.Fatal("negative fee")
			}
		}
	}
}

// E6: bilateral NBS fee evaluation.
func BenchmarkNBSFee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for r := 0.0; r <= 1.0; r += 0.01 {
			_ = econ.NBSFee(100, r, 50)
		}
	}
}

var benchEconLMPs = []econ.LMP{
	{Name: "a", Customers: 700, Access: 50, Churn: 0.10},
	{Name: "b", Customers: 300, Access: 40, Churn: 0.45},
	{Name: "c", Customers: 150, Access: 35, Churn: 0.30},
}

// E7: multi-LMP weighted-average fee.
func BenchmarkMultiLMPFee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := econ.AverageFee(80, benchEconLMPs); err != nil {
			b.Fatal(err)
		}
	}
}

// E8: renegotiation equilibrium (fixed point of price and fee).
func BenchmarkBargainingEquilibrium(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range benchFamilies {
			if _, _, err := econ.Equilibrium(d, benchEconLMPs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E9: incumbent-advantage sweep over market shares.
func BenchmarkIncumbentAdvantage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for r := 0.05; r < 0.9; r += 0.05 {
			adv := econ.Advantage(100, 50, r/2, r, r, r/2)
			if adv.LMPFeeGap < 0 || adv.CSPFeeGap < 0 {
				b.Fatal("incumbent advantage inverted")
			}
		}
	}
}

// E10: the withdraw-non-SL collusion experiment, with the external
// virtual links capping the gain. The full-coverage virtual mesh is
// required: after the withdrawal, only the external ISP keeps every
// BP replaceable (see EXPERIMENTS.md E10).
func BenchmarkCollusion(b *testing.B) {
	s, err := NewScenario(ScenarioOptions{Scale: 0.35, DenseVirtual: true})
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := auction.RunCollusion(s.Instance(Constraint1, 0))
		if err != nil {
			b.Fatal(err)
		}
		gain = col.TotalGain()
	}
	b.ReportMetric(gain, "collusion-gain")
}

// E11: multi-epoch break-even economy.
func BenchmarkMarketEpochs(b *testing.B) {
	s := benchScenario(b)
	op, _, err := s.Deploy(Constraint1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := op.AttachLMP("lmp-a", 0, PeeringPolicy{}); err != nil {
		b.Fatal(err)
	}
	if _, err := op.AttachCSP("csp", len(s.Network.Routers)/2); err != nil {
		b.Fatal(err)
	}
	if _, err := op.StartFlow("csp", "lmp-a", 2, BestEffort); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := op.BillEpoch(3600)
		if err != nil {
			b.Fatal(err)
		}
		if rep.POCNet < 0 {
			b.Fatal("nonprofit lost money")
		}
	}
}

// E12: terms-of-service audit over a policy corpus.
func BenchmarkPeeringAudit(b *testing.B) {
	corpus := []peering.Policy{
		{LMP: "clean"},
		{LMP: "thr", Rules: []peering.Rule{{Match: peering.Selector{Application: "video"}, Action: peering.Deprioritize}}},
		{LMP: "sec", Rules: []peering.Rule{{Match: peering.Selector{Source: "botnet"}, Action: peering.Block, Why: peering.Security}}},
		{LMP: "qos", QoS: []peering.QoSClass{{Name: "gold", PostedPrice: 9, OpenToAll: true}}},
		{LMP: "cdn", CDNOffers: []peering.CDNOffer{{Name: "x", Target: peering.Selector{Source: "a"}}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range corpus {
			_ = peering.Audit(p)
		}
	}
}

// Ablation (DESIGN.md §5): winner-determination variants. The metric
// that matters is C(SL) — lower is a better selection for the same
// instance.
func benchmarkWDVariant(b *testing.B, maxChecks int) {
	s := benchScenario(b)
	var cost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := s.Instance(Constraint1, maxChecks)
		sel, err := inst.Run()
		if err != nil {
			b.Fatal(err)
		}
		cost = sel.TotalCost
	}
	b.ReportMetric(cost, "C(SL)")
}

func BenchmarkWDAblationConstructive(b *testing.B) { benchmarkWDVariant(b, -1) }
func BenchmarkWDAblationShave(b *testing.B)        { benchmarkWDVariant(b, 0) }
func BenchmarkWDAblationRefineShave(b *testing.B)  { benchmarkWDVariant(b, 48) }

// Ablation: routing with and without multi-path splitting.
func benchmarkRouting(b *testing.B, maxPaths int) {
	s := benchScenario(b)
	var unplaced float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := provision.Route(s.Network, nil, s.TM, provision.Options{MaxPaths: maxPaths}, nil)
		unplaced = r.Unplaced
	}
	b.ReportMetric(unplaced, "unplaced-gbps")
}

func BenchmarkRoutingAblationSinglePath(b *testing.B) { benchmarkRouting(b, 1) }
func BenchmarkRoutingAblationMultiPath(b *testing.B)  { benchmarkRouting(b, 12) }

// E13: multicast tree construction vs unicast equivalent.
func BenchmarkMulticast(b *testing.B) {
	s := benchScenario(b)
	f := netsim.New(s.Network, nil)
	src, err := f.Attach("src", netsim.CSPEndpoint, 0)
	if err != nil {
		b.Fatal(err)
	}
	var rcv []netsim.EndpointID
	for i := 1; i < len(s.Network.Routers); i += 3 {
		id, err := f.Attach(fmt.Sprintf("r%d", i), netsim.LMPEndpoint, i)
		if err != nil {
			b.Fatal(err)
		}
		rcv = append(rcv, id)
	}
	var tree, unicast float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := f.StartMulticast(src, rcv, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		tree, unicast = m.TreeGbps(), f.UnicastEquivalentGbps(m)
		if err := f.StopMulticast(m.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tree, "tree-gbps")
	b.ReportMetric(unicast, "unicast-gbps")
}

// E14: CDN offload on the bench fabric.
func BenchmarkEdgeOffload(b *testing.B) {
	s := benchScenario(b)
	for i := 0; i < b.N; i++ {
		f := netsim.New(s.Network, nil)
		origin, err := f.Attach("origin", netsim.CSPEndpoint, 0)
		if err != nil {
			b.Fatal(err)
		}
		svc, err := edge.NewService("cdn", f, 100)
		if err != nil {
			b.Fatal(err)
		}
		n := len(s.Network.Routers)
		if _, err := svc.Deploy("origin-csp", n/2); err != nil {
			b.Fatal(err)
		}
		var ds []*edge.Delivery
		for r := 1; r < n; r += 4 {
			consumer, err := f.Attach(fmt.Sprintf("c%d", r), netsim.LMPEndpoint, r)
			if err != nil {
				b.Fatal(err)
			}
			d, err := svc.Serve("origin-csp", origin, consumer, 0.5, netsim.BestEffort)
			if err != nil {
				continue
			}
			ds = append(ds, d)
		}
		rep := edge.Offload(ds)
		b.ReportMetric(100*rep.CacheFraction(), "cache-pct")
	}
}

// E15: entry analysis sweep.
func BenchmarkEntryAnalysis(b *testing.B) {
	m := econ.EntryModel{IncumbentRetail: 60, LastMileCost: 25, POCTransitPrice: 8, SqueezeSlack: 2}
	for i := 0; i < b.N; i++ {
		for churn := 0.15; churn < 0.9; churn += 0.05 {
			if _, err := econ.AnalyzeEntry(m, 100, 0.1, churn); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E18: the §4 regimes simulated through the §3.2 ledger.
func BenchmarkRegimeComparison(b *testing.B) {
	services := []regimesim.Service{
		{Name: "video", Demand: econ.Uniform{High: 100}},
		{Name: "social", Demand: econ.Exponential{Mean: 30}},
	}
	lmps := []regimesim.Provider{
		{Name: "incumbent", Customers: 700, Access: 50, Churn: 0.10},
		{Name: "entrant", Customers: 300, Access: 40, Churn: 0.45},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := regimesim.Compare(services, lmps, 1)
		if err != nil {
			b.Fatal(err)
		}
		if results[econ.NN].TotalWelfare() <= results[econ.URUnilateral].TotalWelfare() {
			b.Fatal("welfare ordering broken")
		}
	}
}

// E19: status-quo BGP transit vs POC break-even transit.
func BenchmarkBaselineTransit(b *testing.B) {
	h, err := interdomain.SyntheticHierarchy(3, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	var statusQuo, pocBill float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := h.CompareStubTransit(h.Stubs[0], 2.0, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		statusQuo, pocBill = cmp.StatusQuoBill, cmp.POCBill
	}
	b.ReportMetric(statusQuo, "statusquo-bill")
	b.ReportMetric(pocBill, "poc-bill")
}
