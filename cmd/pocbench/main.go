// Command pocbench regenerates the paper's evaluation artifacts — the
// rows/series behind every figure and the §4 analytical results —
// from the experiment index in DESIGN.md §3.
//
// Usage:
//
//	pocbench -exp fig2      # E1: Figure 2 PoB margins (3 constraints)
//	pocbench -exp nn        # E3: NN-regime welfare per demand family
//	pocbench -exp lemma1    # E4: p*(t) monotonicity sweep
//	pocbench -exp fees      # E5–E8: unilateral vs bargained fees
//	pocbench -exp incumbent # E9: incumbent-advantage sweep
//	pocbench -exp collusion # E10: withdraw-non-SL manipulation
//	pocbench -exp market    # E11: multi-epoch break-even economy
//	pocbench -exp peering   # E12: terms-of-service audit corpus
//	pocbench -exp entry     # E15: LMP entry viability (§2.3/§2.5)
//	pocbench -exp regimes   # E18: §4 economics through the §3.2 ledger
//	pocbench -exp baseline  # E19: status-quo BGP transit vs the POC
//	pocbench -exp all       # everything above
//
// Stdout carries only the experiments' output, one "==== <exp> ===="
// section each, and is deterministic; the per-experiment wall-time lap
// lines go to stderr. At the default flags stdout is the pinned
// artifact testdata/experiments_v1.txt, which TestArtifact diffs
// against; regenerate it after an intended change with
//
//	go run ./cmd/pocbench -exp all > testdata/experiments_v1.txt
//
// -scale 1 runs the paper-scale instance for the auction experiments
// (tens of minutes); the default reduced instance preserves the
// qualitative shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"time"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/cmd/internal/diag"
	"github.com/public-option/poc/internal/econ"
	"github.com/public-option/poc/internal/interdomain"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/regimesim"
	"github.com/public-option/poc/internal/stats"
)

// The artifact's auction instance: the -scale and -checks defaults.
const (
	defaultScale  = 0.35
	defaultChecks = 0
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the command's single exit path. Every failure returns here
// so the deferred diagnostics stop always executes — a log.Fatal in
// the middle of an experiment used to skip trace.Stop/StopCPUProfile
// and leave truncated, unreadable profile files behind.
func run() (err error) {
	exp := flag.String("exp", "all", "experiment id (fig2, nn, lemma1, fees, incumbent, collusion, market, peering, entry, regimes, baseline, all)")
	scale := flag.Float64("scale", defaultScale, "auction instance scale in (0,1]; 1 = paper scale")
	checks := flag.Int("checks", defaultChecks, "winner-determination variant (see auction.Instance.MaxChecks)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	stop, err := diag.Start(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		return err
	}
	defer func() {
		// A stop failure (e.g. the heap profile failed to write) is
		// the run's failure unless something already went wrong.
		if cerr := stop(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	exps := experiments(*scale, *checks)
	if *exp != "all" {
		i := slices.IndexFunc(exps, func(e experiment) bool { return e.name == *exp })
		if i < 0 {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		exps = exps[i : i+1]
	}

	w := newStopwatch()
	for _, e := range exps {
		w.lap()
		if err := e.write(os.Stdout); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(%s in %v)\n", e.name, w.lap().Round(time.Millisecond))
	}
	return nil
}

// experiment is one "==== <name> ====" section of the artifact.
// auction marks the sections that run VCG auctions (seconds each);
// the others are closed forms and small simulations.
type experiment struct {
	name    string
	auction bool
	fn      func(w io.Writer) error
}

// experiments lists every experiment in artifact order, with the
// auction ones bound to the given instance scale and check budget.
func experiments(scale float64, checks int) []experiment {
	return []experiment{
		{"fig2", true, func(w io.Writer) error { return fig2(w, scale, checks) }},
		{"nn", false, nnWelfare},
		{"lemma1", false, lemma1},
		{"fees", false, fees},
		{"incumbent", false, incumbent},
		{"collusion", true, func(w io.Writer) error { return collusion(w, scale, checks) }},
		{"market", true, func(w io.Writer) error { return marketEpochs(w, scale) }},
		{"peering", false, peeringAudit},
		{"entry", false, entry},
		{"regimes", false, regimes},
		{"baseline", false, baseline},
	}
}

// write emits the experiment's section: header, output, blank line.
func (e experiment) write(w io.Writer) error {
	fmt.Fprintf(w, "==== %s ====\n", e.name)
	if err := e.fn(w); err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// stopwatch derives every wall-time report in the command from one
// captured time.Now pair: a single start sample, with each lap read as
// a time.Since delta against it. Wall time is reporting only — it
// never feeds experiment state or the metrics ledger (poclint's
// walltime analyzer holds that line in internal/).
type stopwatch struct {
	start time.Time
	last  time.Duration
}

func newStopwatch() *stopwatch { return &stopwatch{start: time.Now()} }

// lap returns the wall time since the previous lap (or the start).
func (w *stopwatch) lap() time.Duration {
	now := time.Since(w.start)
	d := now - w.last
	w.last = now
	return d
}

func baseline(w io.Writer) error {
	h, err := interdomain.SyntheticHierarchy(3, 8, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "status-quo Internet: %d tier-1s (peer mesh), %d regionals, %d stubs\n",
		len(h.Tier1s), len(h.Regionals), len(h.Stubs))
	fmt.Fprintf(w, "%-8s %10s %10s %14s %10s\n", "stub", "reachable", "paid-dsts", "statusquo-bill", "poc-bill")
	for _, stub := range h.Stubs[:4] {
		cmp, err := h.CompareStubTransit(stub, 2.0, 0.5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "AS%-6d %10d %10d %14.1f %10.1f\n",
			cmp.Stub, cmp.Reachable, cmp.PaidDestinations, cmp.StatusQuoBill, cmp.POCBill)
	}
	fmt.Fprintln(w, "(under the status quo nearly every destination rides a paid provider route;")
	fmt.Fprintln(w, " the POC replaces that with one break-even usage price — §2.5)")
	return nil
}

func regimes(w io.Writer) error {
	services := []regimesim.Service{
		{Name: "video", Demand: econ.Uniform{High: 100}},
		{Name: "social", Demand: econ.Exponential{Mean: 30}},
		{Name: "gaming", Demand: econ.Logistic{Mid: 50, S: 10}},
	}
	lmps := []regimesim.Provider{
		{Name: "incumbent", Customers: 700, Access: 50, Churn: 0.10},
		{Name: "entrant", Customers: 300, Access: 40, Churn: 0.45},
	}
	results, err := regimesim.Compare(services, lmps, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %14s %14s %14s %14s\n", "regime", "welfare", "CSP revenue", "LMP fees", "conservation")
	for _, regime := range []econ.Regime{econ.NN, econ.URBargain, econ.URUnilateral} {
		r := results[regime]
		e := r.Epochs[0]
		fmt.Fprintf(w, "%-14s %14.0f %14.0f %14.0f %14.6f\n",
			regime, e.Welfare, e.CSPRevenue, e.LMPFees, r.Ledger.Conservation())
	}
	fmt.Fprintln(w, "(every payment ledger-validated; termination fees only exist in the UR rows)")
	return nil
}

func entry(w io.Writer) error {
	m := poc.EntryModel{
		IncumbentRetail: 60,
		LastMileCost:    25,
		POCTransitPrice: 8,
		SqueezeSlack:    2,
	}
	fmt.Fprintln(w, "LMP entry (per subscriber per month), §2.3/§2.5:")
	fmt.Fprintf(w, "  incumbent retail %.0f, entrant last-mile cost %.0f\n", m.IncumbentRetail, m.LastMileCost)
	fmt.Fprintf(w, "  incumbent transit (margin squeeze): %.0f → entrant margin %.0f\n",
		m.IncumbentTransitPrice(), m.EntrantMargin(poc.IncumbentTransit))
	fmt.Fprintf(w, "  POC transit (break-even):           %.0f → entrant margin %.0f\n",
		m.POCTransitPrice, m.EntrantMargin(poc.POCTransit))
	a, err := poc.AnalyzeEntry(m, 100, 0.10, 0.45)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  UR termination-fee gap favoring the incumbent: %.2f per subscriber\n", a.URFeeGap)
	fmt.Fprintf(w, "  POC advantage for the entrant: %.0f per subscriber\n", a.POCAdvantage())
	return nil
}

func fig2(w io.Writer, scale float64, checks int) error {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: scale})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "instance: %s, %.1f Tbps demand\n", s.Network.Summary(), s.TM.Total()/1000)
	res, err := s.Figure2(checks)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-7s %12s %12s %12s\n", "BP", "share", "constraint#1", "constraint#2", "constraint#3")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%-8s %5.1f%% %12.3f %12.3f %12.3f\n",
			row.Name, 100*row.Share, row.PoB[0], row.PoB[1], row.PoB[2])
	}
	for i, r := range res.Results {
		fmt.Fprintf(w, "constraint#%d: C(SL)=%.0f links=%d surplus=%.0f checks=%d\n",
			i+1, r.TotalCost, len(r.Selected), r.Surplus(), r.Checks)
		var pob, pay []float64
		for a := range r.Payments {
			if r.BPCost[a] > 0 {
				pob = append(pob, r.PoB(a))
			}
			pay = append(pay, r.Payments[a])
		}
		fmt.Fprintf(w, "  all-BP PoB: %s\n", stats.Summarize(pob))
		fmt.Fprintf(w, "  payment Gini: %.3f\n", stats.Gini(pay))
	}
	return nil
}

var families = []struct {
	name string
	d    poc.Demand
}{
	{"uniform(0,100)", econ.Uniform{High: 100}},
	{"exponential(30)", econ.Exponential{Mean: 30}},
	{"pareto(20,2.5)", econ.Pareto{Scale: 20, Alpha: 2.5}},
	{"logistic(50,10)", econ.Logistic{Mid: 50, S: 10}},
}

var benchLMPs = []poc.EconLMP{
	{Name: "incumbent", Customers: 700, Access: 50, Churn: 0.10},
	{Name: "entrant", Customers: 300, Access: 40, Churn: 0.45},
}

func nnWelfare(w io.Writer) error {
	fmt.Fprintf(w, "%-18s %8s %8s %10s %10s\n", "demand", "p*", "D(p*)", "welfare", "CSP rev")
	for _, f := range families {
		out, err := poc.EvaluateRegime(f.d, poc.RegimeNN, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %8.2f %8.3f %10.3f %10.3f\n",
			f.name, out.Price, out.Demand, out.Welfare, out.CSPRevenue)
	}
	return nil
}

func lemma1(w io.Writer) error {
	fmt.Fprintln(w, "p*(t) per demand family (must be monotone increasing — Lemma 1):")
	fmt.Fprintf(w, "%-18s", "t")
	for _, f := range families {
		fmt.Fprintf(w, " %16s", f.name)
	}
	fmt.Fprintln(w)
	for i := 0; i <= 8; i++ {
		t := 5.0 * float64(i)
		fmt.Fprintf(w, "%-18.1f", t)
		for _, f := range families {
			fmt.Fprintf(w, " %16.2f", econ.OptimalPrice(f.d, t))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fees(w io.Writer) error {
	fmt.Fprintf(w, "%-18s %14s %14s %14s | welfare: %8s %8s %8s\n",
		"demand", "t*unilateral", "t*bargain", "t*NN", "NN", "bargain", "unilat")
	for _, f := range families {
		nn, err := poc.EvaluateRegime(f.d, poc.RegimeNN, nil)
		if err != nil {
			return err
		}
		bar, err := poc.EvaluateRegime(f.d, poc.RegimeURBargain, benchLMPs)
		if err != nil {
			return err
		}
		uni, err := poc.EvaluateRegime(f.d, poc.RegimeURUnilateral, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %14.2f %14.2f %14.2f | %17.3f %8.3f %8.3f\n",
			f.name, uni.Fee, bar.Fee, nn.Fee, nn.Welfare, bar.Welfare, uni.Welfare)
	}
	fmt.Fprintln(w, "(W_NN >= both UR regimes for every family; heavy-tailed Pareto")
	fmt.Fprintln(w, " can order bargain above unilateral — see EXPERIMENTS.md E8.)")
	return nil
}

func incumbent(w io.Writer) error {
	fmt.Fprintln(w, "NBS fee t=(p−rc)/2 at p=100, c=50, as churn varies (E9):")
	fmt.Fprintf(w, "%-8s %10s\n", "churn r", "fee")
	for _, r := range []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8} {
		fmt.Fprintf(w, "%-8.2f %10.2f\n", r, poc.NBSFee(100, r, 50))
	}
	fmt.Fprintln(w, "incumbent LMP (low churn) extracts more; incumbent CSP (high imposed churn) pays less.")
	return nil
}

func collusion(w io.Writer, scale float64, checks int) error {
	for _, withVL := range []bool{true, false} {
		s, err := poc.NewScenario(poc.ScenarioOptions{Scale: scale, NoVirtualLinks: !withVL, DenseVirtual: withVL})
		if err != nil {
			return err
		}
		col, err := poc.RunCollusion(s.Instance(poc.Constraint1, checks))
		if err != nil {
			fmt.Fprintf(w, "virtual links %v: %v (manipulation made the auction fail)\n", withVL, err)
			continue
		}
		fmt.Fprintf(w, "virtual links %v: honest payments %.0f, after withdrawal %.0f, total gain %.0f (%.1f%%)\n",
			withVL, sum(col.Honest.Payments), sum(col.Withdrawn.Payments),
			col.TotalGain(), 100*col.TotalGain()/sum(col.Honest.Payments))
	}
	return nil
}

func marketEpochs(w io.Writer, scale float64) error {
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: scale})
	if err != nil {
		return err
	}
	op, _, err := s.Deploy(poc.Constraint1)
	if err != nil {
		return err
	}
	n := len(s.Network.Routers)
	if _, err := op.AttachLMP("lmp-a", 0, poc.PeeringPolicy{}); err != nil {
		return err
	}
	if _, err := op.AttachLMP("lmp-b", n-1, poc.PeeringPolicy{}); err != nil {
		return err
	}
	if _, err := op.AttachCSP("csp", n/2); err != nil {
		return err
	}
	if _, err := op.StartFlow("csp", "lmp-a", 4, poc.BestEffort); err != nil {
		return err
	}
	if _, err := op.StartFlow("csp", "lmp-b", 4, poc.BestEffort); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %12s %12s %10s\n", "epoch", "cost", "revenue", "POC net")
	for e := 0; e < 3; e++ {
		rep, err := op.BillEpoch(6 * 3600)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %12.2f %12.2f %10.2f\n", e, rep.LeaseCost+rep.VirtualCost, rep.Revenue, rep.POCNet)
	}
	fmt.Fprintf(w, "ledger conservation: %.6f\n", op.Ledger().Conservation())
	return nil
}

func peeringAudit(w io.Writer) error {
	corpus := []peering.Policy{
		{LMP: "clean"},
		{LMP: "uniform-shaper", Rules: []peering.Rule{{Direction: peering.Incoming, Action: peering.Deprioritize}}},
		{LMP: "security-block", Rules: []peering.Rule{{Direction: peering.Incoming, Match: peering.Selector{Source: "botnet"}, Action: peering.Block, Why: peering.Security}}},
		{LMP: "video-throttler", Rules: []peering.Rule{{Direction: peering.Incoming, Match: peering.Selector{Application: "video"}, Action: peering.Deprioritize}}},
		{LMP: "self-preferencer", Rules: []peering.Rule{{Direction: peering.Incoming, Match: peering.Selector{Source: "self-streaming"}, Action: peering.Prioritize}}},
		{LMP: "closed-qos", QoS: []peering.QoSClass{{Name: "vip", PostedPrice: 10}}},
		{LMP: "open-qos", QoS: []peering.QoSClass{{Name: "gold", PostedPrice: 99, OpenToAll: true}}},
		{LMP: "exclusive-cdn", CDNOffers: []peering.CDNOffer{{Name: "racks", ThirdParty: true, Target: peering.Selector{Source: "megaflix"}, OpenToAll: true}}},
	}
	for _, p := range corpus {
		vs := peering.Audit(p)
		status := "COMPLIANT"
		if len(vs) > 0 {
			status = fmt.Sprintf("%d violation(s): %s", len(vs), vs[0].Condition)
		}
		fmt.Fprintf(w, "  %-18s %s\n", p.LMP, status)
	}
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
