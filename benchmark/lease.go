package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/chaos"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/fleet"
	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/traffic"
)

var constraints = []poc.Constraint{poc.Constraint1, poc.Constraint2, poc.Constraint3}

// seededPricing maps the workload seed to lease pricing whose port
// charge is within 0.05 % of the default: every seed gives the auctions
// another price metric, so no memoized answer carries over from one
// seed to the next, while the work stays within one percent (ten times
// the jitter moved allocations by 5 % from seed to seed).
// The topology and the demand stay fixed: another zoo or synth seed
// changes the instance size by 2x, and either can leave a BP
// irreplaceable, which makes the auction unclearable; prices cannot.
func seededPricing(seed int64) auction.LeasePricing {
	lp := auction.DefaultLeasePricing()
	lp.PortCharge *= 1 + 0.001*(rand.New(rand.NewSource(seed)).Float64()-0.5)
	return lp
}

// hashAuction digests an auction outcome the way fleet's cell rows and
// the seed golden tests do: sorted selection, hex-float money, checks.
func hashAuction(res *auction.Result) string {
	ids := make([]int, 0, len(res.Selected))
	for id := range res.Selected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	hexf := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "s%d,", id)
	}
	for a := range res.Payments {
		fmt.Fprintf(h, "p%d=%s,a%d=%s,c%d=%s;", a, hexf(res.Payments[a]),
			a, hexf(res.Alternative[a]), a, hexf(res.BPCost[a]))
	}
	fmt.Fprintf(h, "tc=%s,vc=%s,ck=%d", hexf(res.TotalCost), hexf(res.VirtualCost), res.Checks)
	return hex.EncodeToString(h.Sum(nil))
}

// leaseInputs is what set-up builds for lease-cycle.
type leaseInputs struct {
	s     *poc.Scenario
	names []string           // one LMP per router
	reqs  []core.FlowRequest // the sampled flow population
}

func leaseSetup(h *harness) (*leaseInputs, error) {
	in := &leaseInputs{}
	var err error
	h.call("topo.NewScenario", func() {
		in.s, err = poc.NewScenario(poc.ScenarioOptions{Scale: h.sz.LeaseScale})
	})
	if err != nil {
		return nil, err
	}
	in.s.Bids = auction.StandardBids(in.s.Network, seededPricing(h.seed))
	var fl []traffic.FlowSample
	h.call("traffic.SampleFlows", func() {
		fl = traffic.SampleFlows(in.s.TM, h.sz.LeaseFlows, 0.5*in.s.TM.Total(), h.seed)
	})
	in.names = make([]string, len(in.s.Network.Routers))
	for r := range in.names {
		in.names[r] = fmt.Sprintf("lmp-%02d", r)
	}
	in.reqs = make([]core.FlowRequest, len(fl))
	for i, f := range fl {
		in.reqs[i] = core.FlowRequest{Src: in.names[f.Src], Dst: in.names[f.Dst], Gbps: f.Gbps, Class: netsim.BestEffort}
	}
	return in, nil
}

// clear builds an operator for one constraint and runs its auction,
// recorded under the given span name. It returns the operator, the
// outcome and the auction time in seconds.
func (in *leaseInputs) clear(h *harness, c poc.Constraint, workers int, spanName string) (*core.POC, *auction.Result, float64) {
	in.s.Opts.Workers = workers
	var (
		op  *core.POC
		res *auction.Result
		err error
	)
	h.call("core.New", func() { op, err = in.s.NewPOC(c) })
	if !h.must(err, "core.New") {
		return nil, nil, 0
	}
	h.call("core.SubmitBid", func() {
		for _, b := range in.s.Bids {
			h.must(op.SubmitBid(b), "SubmitBid")
		}
		h.must(op.AddVirtualLinks(in.s.Virtual), "AddVirtualLinks")
	})
	secs := h.call(spanName, func() { res, err = op.RunAuction() })
	if !h.must(err, spanName) {
		return nil, nil, 0
	}
	return op, res, secs
}

// turnUp takes an auctioned operator into service: activate, attach
// one LMP per router, admit the flow population, bill one epoch. It
// returns the time in seconds.
func (in *leaseInputs) turnUp(h *harness, op *core.POC) float64 {
	d := h.call("core.Activate", func() { h.must(op.Activate(), "Activate") })
	d += h.call("core.AttachLMP", func() {
		for r, name := range in.names {
			_, err := op.AttachLMP(name, r, peering.Policy{})
			h.must(err, "AttachLMP")
		}
	})
	d += h.call("core.StartFlows", func() {
		ids, err := op.StartFlows(in.reqs)
		h.must(err, "StartFlows")
		admitted := 0
		for _, id := range ids {
			if id >= 0 {
				admitted++
			}
		}
		h.admitted(admitted, len(in.reqs))
	})
	d += h.call("core.BillEpoch", func() {
		_, err := op.BillEpoch(3600)
		h.must(err, "BillEpoch")
	})
	return d
}

func runLeaseCycle(h *harness) error {
	var in *leaseInputs
	h.beginSetup()
	for i := 0; i < h.sz.Setups; i++ {
		var err error
		h.setup = append(h.setup, h.call("setup", func() { in, err = leaseSetup(h) }))
		if err != nil {
			return err
		}
	}

	var rs repSamples
	last := map[poc.Constraint]*auction.Result{}
	checks := 0
	start := time.Now()
	for rep := 0; h.moreReps(start, rs.wall); rep++ {
		h.beginRep(rep)
		var repBulk, repEvent float64
		var turnUps samples
		mallocs, alloc := memDelta(func() {
			rs.wall = append(rs.wall, h.call("lease-cycle.rep", func() {
				reg := obs.New()
				in.s.Opts.Obs = reg
				checks = 0
				for _, c := range constraints {
					op, res, auctionS := in.clear(h, c, 0, fmt.Sprintf("auction.Run.c%d", int(c)))
					if op == nil {
						continue
					}
					repBulk += auctionS
					turnUps = append(turnUps, in.turnUp(h, op))
					checks += res.Checks
					if prev := last[c]; prev != nil {
						h.ok(hashAuction(prev) == hashAuction(res), "C%d outcome differs between repetitions", int(c))
					}
					last[c] = res
					if c == poc.Constraint1 {
						repEvent = in.outage(h, op)
					}
				}
				h.call("obs.ExportJSON", func() {
					_, err := reg.ExportJSON()
					h.must(err, "ExportJSON")
				})
			}))
		})
		rs.add(repBulk, turnUps.median()*1e3, repEvent, mallocs, alloc)
	}
	h.record(&rs)
	for c, res := range last {
		h.pins[fmt.Sprintf("lease-cycle.c%d.sha", int(c))] = hashAuction(res)
	}
	h.pins["lease-cycle.checks"] = strconv.Itoa(checks)

	if h.trace && len(last) == len(constraints) {
		in.s.Opts.Obs = nil
		h.leaseLayers(in, rs.bulk, checks, last)
	}
	return nil
}

// outage plays a single-BP outage through the chaos engine under the
// reauction policy, then re-leases around that BP explicitly. It
// returns the time both took.
func (in *leaseInputs) outage(h *harness, op *core.POC) float64 {
	bp := h.sz.OutageBP
	var d float64
	eng, err := chaos.New(op, chaos.SingleBPOutage(bp, 1, h.sz.ChaosEpochs-3), chaos.DefaultRecovery(chaos.Reauction))
	if h.must(err, "chaos.New") {
		d += h.call("chaos.Run", func() {
			_, err := eng.Run(h.sz.ChaosEpochs)
			h.must(err, "chaos.Run")
		})
	}
	exclude := linkset.FromIDs(op.Network().LinksOfBP(bp), len(op.Network().Links))
	d += h.call("core.ReauctionExcluding", func() {
		_, err := op.ReauctionExcluding(op.TrafficMatrix(), exclude)
		h.must(err, "ReauctionExcluding")
	})
	return d
}

// leaseLayers fills the per-layer metrics of lease-cycle from the
// spans of the traced repetitions, then runs the steady-state probes.
func (h *harness) leaseLayers(in *leaseInputs, bulk samples, checks int, last map[poc.Constraint]*auction.Result) {
	tr := h.tr
	h.setLayer("topo.build_ms", tr.durations("topo.NewScenario").scale(1e3))
	h.setLayer("traffic.sample_flows_ms", tr.durations("traffic.SampleFlows").scale(1e3))
	for _, c := range constraints {
		h.setLayer(fmt.Sprintf("auction.run_s.c%d", int(c)), tr.durations(fmt.Sprintf("auction.Run.c%d", int(c))))
	}
	h.setLayerValue("auction.checks", float64(checks))
	hits, misses := 0, 0
	for _, r := range last {
		hits += r.CacheHits
		misses += r.CacheMisses
	}
	h.setLayerValue("auction.memo_hits", float64(hits))
	h.setLayerValue("auction.memo_misses", float64(misses))
	h.setLayerValue("provision.ns_per_check", bulk.median()*1e9/float64(max(checks, 1)))
	h.setLayer("core.activate_ms", tr.durations("core.Activate").scale(1e3))
	h.setLayer("core.start_flows_us_per_flow", tr.durations("core.StartFlows").scale(1e6/float64(len(in.reqs))))
	h.setLayer("core.bill_epoch_ms", tr.durations("core.BillEpoch").scale(1e3))
	h.setLayer("core.reauction_s", tr.durations("core.ReauctionExcluding"))
	h.setLayer("chaos.run_ms", tr.durations("chaos.Run").scale(1e3))
	h.setLayer("obs.export_us", tr.durations("obs.ExportJSON").scale(1e6))

	tr.rep, tr.on = -1, true
	root := tr.begin("lease-cycle.probes")
	defer tr.end(root)

	// The gravity model alone, on the scenario's own routers.
	net, w := in.s.Network, in.s.World
	gcfg := traffic.DefaultGravityConfig()
	gcfg.TotalGbps *= h.sz.LeaseScale * h.sz.LeaseScale
	sec, _ := probe(h.sz.ProbeK, func() {
		traffic.Gravity(len(net.Routers), gcfg,
			func(i int) float64 { return w.Cities[net.Routers[i]].Population },
			func(i, j int) float64 { return w.Distance(net.Routers[i], net.Routers[j]) })
	})
	h.setLayerValue("traffic.gravity_ms", sec*1e3)

	g, _ := net.Graph(nil)
	h.probeSSSP(g)

	// C1 auctions without the observer and one C2 auction on a single
	// worker: all must reproduce the observed, parallel outcomes.
	var bare samples
	for i := 0; i < 3; i++ {
		if _, res, d := in.clear(h, poc.Constraint1, 0, "probe.auction.c1.noobs"); res != nil {
			h.ok(hashAuction(res) == hashAuction(last[poc.Constraint1]), "C1 outcome differs without the observer")
			bare = append(bare, d)
		}
	}
	if len(bare) > 0 {
		h.setLayerValue("obs.overhead_frac", tr.durations("auction.Run.c1").median()/bare.median()-1)
	}
	if _, res, serial := in.clear(h, poc.Constraint2, 1, "probe.auction.c2.workers1"); res != nil {
		h.ok(hashAuction(res) == hashAuction(last[poc.Constraint2]), "C2 outcome differs at Workers:1")
		h.setLayerValue("auction.workers1_s.c2", serial)
		h.setLayerValue("auction.par_speedup", serial/tr.durations("auction.Run.c2").median())
	}

	// Feasibility, routing and core extraction over the full offered
	// set with one reused workspace — the substrate probes of
	// bench_test.go. (A selected set is only acceptable under the
	// auction's own marginal-price metric, which is not exported.)
	opts := in.s.RouteOptions()
	opts.Workspace = provision.NewWorkspace(net, opts)
	for _, c := range constraints {
		sec, allocs := probe(h.sz.ProbeK, func() {
			if ok, _ := provision.Check(net, nil, in.s.TM, c, opts); !ok {
				h.fail("offered set infeasible under C%d", int(c))
			}
		})
		h.setLayerValue(fmt.Sprintf("provision.check_ms.c%d", int(c)), sec*1e3)
		if c == poc.Constraint1 {
			h.setLayerValue("provision.check_allocs", allocs)
		}
	}
	sec, _ = probe(h.sz.ProbeK, func() { provision.Route(net, nil, in.s.TM, opts, nil) })
	h.setLayerValue("provision.route_ms", sec*1e3)
	sec, _ = probe(h.sz.ProbeK, func() { provision.CheckCore(net, nil, in.s.TM, poc.Constraint1, opts) })
	h.setLayerValue("provision.checkcore_ms", sec*1e3)

	// The fleet's golden grid: its report must match the committed fixture.
	var rep *fleet.Report
	var err error
	d := h.call("fleet.Run", func() { rep, err = fleet.Run(fleet.GoldenGrid(), fleet.Config{}) })
	if h.must(err, "fleet.Run") {
		h.setLayerValue("fleet.golden_cells_per_s", float64(len(fleet.GoldenGrid().Expand()))/d)
		golden, err := fleet.LoadGolden(filepath.Join(h.root, "testdata", "fleet_golden.json"))
		if h.must(err, "load fleet golden") {
			diffs, err := golden.Diff(rep)
			h.must(err, "fleet golden diff")
			h.ok(len(diffs) == 0, "fleet golden drift: %v", diffs)
		}
	}
}

// probeSSSP times a shortest-path tree from every node of g.
func (h *harness) probeSSSP(g *graph.Graph) {
	router := graph.NewTreeRouter(g)
	n := g.NumNodes()
	sec, allocs := probe(h.sz.ProbeK, func() {
		for src := 0; src < n; src++ {
			router.Tree(graph.NodeID(src), nil)
		}
	})
	h.setLayerValue("graph.sssp_us", sec*1e6/float64(n))
	h.setLayerValue("graph.sssp_allocs", allocs/float64(n))
}
