// Command pocsim runs an end-to-end POC deployment: auction, fabric
// activation, member attachment, a configurable number of billing
// epochs with diurnal traffic, optional link failures, and a final
// terms-of-service audit. It is the operational counterpart of the
// experiment-oriented pocbench.
//
// With -chaos it instead runs the survivability experiment: the same
// members and flows are deployed twice, once on a Constraint-1 core
// and once on a Constraint-2 core, both are driven through the same
// fault schedule (a single-BP outage, plus seeded random faults when
// -seed is set) by the chaos engine, and the two survivability
// reports are printed side by side.
//
// With -metrics the run threads one deterministic observability
// registry (see internal/obs) through every layer and writes the
// poc-obs/v1 JSON ledger on exit; the file is byte-identical across
// runs and across -workers settings. -cpuprofile, -memprofile and
// -trace enable the standard runtime diagnostics.
//
// Usage:
//
//	pocsim [-scale 0.35] [-constraint 2] [-epochs 4] [-fail] [-v] [-metrics out.json]
//	pocsim -chaos [-scale 0.35] [-epochs 8] [-seed 7] [-policy reroute|recall|reauction]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/cmd/internal/diag"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/provision"
)

// stopwatch derives every wall-time report in the command from one
// captured time.Now pair: a single start sample, with the total read
// as a time.Since delta against it. Wall time is reporting only — it
// never feeds simulation state or the metrics ledger (a clock read in
// internal/ would move the determinism tests' exports and the seed-1
// golden pins).
type stopwatch struct {
	start time.Time
}

func newStopwatch() *stopwatch { return &stopwatch{start: time.Now()} }

// total returns the wall time since the watch started.
func (w *stopwatch) total() time.Duration { return time.Since(w.start) }

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the command's single exit path. Every failure returns here
// so the deferred diagnostics stop always executes — a log.Fatal in
// the middle of a run used to skip trace.Stop/StopCPUProfile and
// leave truncated, unreadable profile files behind.
func run() (err error) {
	scale := flag.Float64("scale", 0.35, "instance scale in (0,1]")
	constraint := flag.Int("constraint", 1, "auction constraint (1, 2 or 3)")
	epochs := flag.Int("epochs", 4, "billing epochs to simulate (6h each)")
	fail := flag.Bool("fail", false, "fail the busiest link halfway through")
	verbose := flag.Bool("v", false, "print per-member billing detail")
	chaosRun := flag.Bool("chaos", false, "run the C1-vs-C2 survivability experiment")
	seed := flag.Int64("seed", 0, "chaos: add seeded random faults (0 = scripted outage only)")
	policy := flag.String("policy", "reroute", "chaos: recovery policy (reroute, recall, reauction)")
	workers := flag.Int("workers", 0, "auction worker goroutines (0 = GOMAXPROCS; any value gives identical output)")
	metrics := flag.String("metrics", "", "write the poc-obs/v1 metrics ledger to this file")
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

	w := newStopwatch()

	var reg *poc.Observer
	if *metrics != "" {
		reg = poc.NewObserver()
	}

	if *constraint < 1 || *constraint > 3 {
		return fmt.Errorf("constraint %d out of range", *constraint)
	}
	if *chaosRun {
		ep := *epochs
		if ep < 8 {
			ep = 8
		}
		if err := runChaos(*scale, *seed, *policy, ep, *workers, reg); err != nil {
			return err
		}
		if err := writeMetrics(reg, *metrics); err != nil {
			return err
		}
		fmt.Printf("wall:     %v\n", w.total().Round(time.Millisecond))
		return nil
	}

	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: *scale, Workers: *workers, Obs: reg})
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s\n", s.Network.Summary())

	op, res, err := s.Deploy(provision.Constraint(*constraint))
	if err != nil {
		return err
	}
	fmt.Printf("auction:  %d links leased under constraint #%d, C(SL)=%.0f, BP surplus %.0f\n",
		len(res.Selected), *constraint, res.TotalCost, res.Surplus())

	// Attach an LMP at every fourth router and two CSPs at hubs.
	n := len(s.Network.Routers)
	var lmps []string
	for r := 0; r < n; r += 4 {
		name := fmt.Sprintf("lmp-%02d", r)
		if _, err := op.AttachLMP(name, r, poc.PeeringPolicy{}); err != nil {
			return err
		}
		lmps = append(lmps, name)
	}
	csps := []string{"megaflix", "cloudco"}
	if _, err := op.AttachCSP("megaflix", n/2); err != nil {
		return err
	}
	if _, err := op.AttachCSP("cloudco", n/3); err != nil {
		return err
	}
	fmt.Printf("members:  %d LMPs, %d CSPs attached\n", len(lmps), len(csps))

	// CSP fan-out flows to every LMP.
	admitted, rejected := 0, 0
	for _, csp := range csps {
		for _, lmp := range lmps {
			if _, err := op.StartFlow(csp, lmp, 2, poc.BestEffort); err != nil {
				rejected++
				continue
			}
			admitted++
		}
	}
	fmt.Printf("flows:    %d admitted, %d rejected\n", admitted, rejected)

	for e := 0; e < *epochs; e++ {
		if *fail && e == *epochs/2 {
			if busiest, bu := busiestLink(op.Fabric().Utilization()); busiest >= 0 {
				moved := op.Fabric().FailLink(busiest)
				fmt.Printf("epoch %d: FAILED link %d (%.0f%% utilized), %d flows rerouted\n",
					e, busiest, 100*bu, len(moved))
			}
		}
		rep, err := op.BillEpoch(6 * 3600)
		if err != nil {
			return err
		}
		fmt.Printf("epoch %d:  cost %11.2f  revenue %11.2f  net %9.2f  price %.5f/GB\n",
			e, rep.LeaseCost+rep.VirtualCost, rep.Revenue, rep.POCNet, rep.PricePerGB)
		if *verbose {
			var names []string
			for name := range rep.MemberCharge {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("          %-10s %9.0f GB → %10.2f\n", name, rep.UsageGB[name], rep.MemberCharge[name])
			}
		}
	}

	if vs := op.EnforceTerms(); len(vs) > 0 {
		fmt.Printf("audit:    %d violations\n", len(vs))
	} else {
		fmt.Println("audit:    all attached LMPs compliant")
	}
	fmt.Printf("ledger:   conservation %.6f (must be 0)\n", op.Ledger().Conservation())
	if err := writeMetrics(reg, *metrics); err != nil {
		return err
	}
	fmt.Printf("wall:     %v\n", w.total().Round(time.Millisecond))
	return nil
}

// writeMetrics exports the observability ledger when -metrics is set.
func writeMetrics(reg *poc.Observer, path string) error {
	if path == "" {
		return nil
	}
	if err := reg.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("metrics:  wrote %s\n", path)
	return nil
}

// busiestLink returns the most utilized link and its utilization, or
// -1 when no link carries traffic. util is in ascending link order, as
// Fabric.Utilization returns it, so a utilization tie goes to the
// lowest ID.
func busiestLink(util []netsim.LinkUtil) (int, float64) {
	busiest, bu := -1, 0.0
	for _, lu := range util {
		if lu.Utilization > bu {
			busiest, bu = lu.Link, lu.Utilization
		}
	}
	return busiest, bu
}

// goldClass is the premium QoS class used by the chaos experiment.
var goldClass = poc.QoSClass{Name: "gold", Weight: 4, Price: 10}

// chaosDeploy runs the lease lifecycle under one constraint and
// admits a gold and a best-effort flow for every traffic-matrix pair:
// gold at 25% of the provisioned demand, best-effort at 45%, so the
// core runs near its provisioned load and a failure has to hurt
// someone — the question the experiment answers is whom.
func chaosDeploy(s *poc.Scenario, c poc.Constraint) (*poc.Operator, error) {
	op, _, err := s.Deploy(c)
	if err != nil {
		return nil, err
	}
	n := len(s.Network.Routers)
	for r := 0; r < n; r++ {
		if _, err := op.AttachLMP(fmt.Sprintf("m-%02d", r), r, poc.PeeringPolicy{}); err != nil {
			return nil, err
		}
	}
	var flowErr error
	s.TM.Demands(func(src, dst int, gbps float64) {
		if flowErr != nil || gbps <= 0 {
			return
		}
		a, b := fmt.Sprintf("m-%02d", src), fmt.Sprintf("m-%02d", dst)
		if _, err := op.StartFlow(a, b, 0.25*gbps, goldClass); err != nil {
			flowErr = err
			return
		}
		if _, err := op.StartFlow(a, b, 0.45*gbps, poc.BestEffort); err != nil {
			flowErr = err
		}
	})
	return op, flowErr
}

// goldCrossingBP returns, per BP, the gold Gbps crossing its selected
// links on the given operator's fabric — the outage target ranking.
func goldCrossingBP(op *poc.Operator) []float64 {
	cross := make([]float64, len(op.Network().BPs))
	for _, fl := range op.Fabric().Flows() {
		if fl.Class.Name != goldClass.Name {
			continue
		}
		for _, l := range fl.Links {
			if bp := op.Network().Links[l].BP; bp >= 0 {
				cross[bp] += fl.Allocated
			}
		}
	}
	return cross
}

// runChaos is the -chaos entry point: the paper's Constraint-2
// promise ("previously admitted traffic will survive the failure",
// §2.1) tested on a running fabric against the Constraint-1 core.
func runChaos(scale float64, seed int64, policyName string, epochs, workers int, reg *poc.Observer) error {
	pol, err := poc.ParseRecoveryPolicy(policyName)
	if err != nil {
		return err
	}
	// Both cores share one registry, so the exported ledger covers the
	// whole experiment (C1 and C2 counters accumulate).
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: scale, Workers: workers, Obs: reg})
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s\n", s.Network.Summary())

	c1, err := chaosDeploy(s, poc.Constraint1)
	if err != nil {
		return err
	}
	c2, err := chaosDeploy(s, poc.Constraint2)
	if err != nil {
		return err
	}

	// Target the BP carrying the most gold traffic on the Constraint-1
	// fabric: the outage Constraint 1 never planned for and Constraint
	// 2 must survive.
	cross := goldCrossingBP(c1)
	target, most := -1, 0.0
	for bp, g := range cross {
		if g > most {
			target, most = bp, g
		}
	}
	if target < 0 {
		return fmt.Errorf("no BP carries gold traffic; nothing to fail")
	}
	repair := epochs - 3
	fmt.Printf("chaos:    BP %d dark at epoch 2 (%.0f Gbps gold crossing), repaired at %d, policy=%s, seed=%d\n",
		target, most, repair, pol, seed)

	// Each core gets the same scripted outage plus random faults drawn
	// (from the same seed) over its *own* leased links — a schedule
	// generated over one core's selection would name links the other
	// never leased.
	run := func(label string, op *poc.Operator) (*poc.SurvivabilityReport, error) {
		sched := poc.SingleBPOutage(target, 2, repair)
		if seed != 0 {
			sched.Merge(poc.RandomChaos(seed, epochs, op.Fabric().SelectedLinks(), 0.05, 2))
		}
		eng, err := poc.NewChaosEngine(op, sched, poc.DefaultRecoveryConfig(pol))
		if err != nil {
			return nil, err
		}
		rep, err := eng.Run(epochs)
		if err != nil {
			return nil, err
		}
		fmt.Printf("--- %s ---\n%s", label, rep)
		return rep, nil
	}
	r1, err := run("constraint #1 survivability", c1)
	if err != nil {
		return err
	}
	r2, err := run("constraint #2 survivability", c2)
	if err != nil {
		return err
	}

	g1, g2 := r1.Class(goldClass.Name), r2.Class(goldClass.Name)
	if g1 == nil || g2 == nil {
		return fmt.Errorf("missing gold timeline")
	}
	fmt.Printf("verdict:  gold delivered min: C1=%.6f C2=%.6f; restore: C1=%d C2=%d epochs\n",
		g1.Delivered.Min(), g2.Delivered.Min(),
		g1.Delivered.RestoreTime(0.999), g2.Delivered.RestoreTime(0.999))
	switch {
	case g2.Delivered.Min() >= 1 && g1.Delivered.Min() < 1:
		fmt.Println("verdict:  constraint #2 sustained 100% gold through the outage; constraint #1 did not")
	case g2.Delivered.Min() >= 1:
		fmt.Println("verdict:  both cores sustained 100% gold (outage not binding at this scale)")
	default:
		fmt.Println("verdict:  constraint #2 core degraded gold traffic — survivability promise violated")
	}
	return nil
}
