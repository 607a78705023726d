package main

import (
	"strconv"
	"time"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/traffic"
)

// fabricInputs is what set-up builds for fabric-churn.
type fabricInputs struct {
	s     *poc.Scenario
	flows []traffic.FlowSample
	bp    int // the BP that fails: the one offering the most links
}

func fabricSetup(h *harness) (*fabricInputs, error) {
	in := &fabricInputs{}
	var err error
	h.call("topo.NewScenario", func() {
		in.s, err = poc.NewScenario(poc.ScenarioOptions{Scale: h.sz.FabricScale})
	})
	if err != nil {
		return nil, err
	}
	capacity := 0.0
	links := make([]int, len(in.s.Network.BPs))
	for _, l := range in.s.Network.Links {
		capacity += l.Capacity
		if l.BP >= 0 && l.BP < len(links) {
			links[l.BP]++
		}
	}
	for bp, n := range links {
		if n > links[in.bp] {
			in.bp = bp
		}
	}
	h.call("traffic.SampleFlows", func() {
		in.flows = traffic.SampleFlows(in.s.TM, h.sz.FabricFlows, 0.1*capacity, h.seed)
	})
	return in, nil
}

// specs binds the sampled flows to a fabric's endpoints.
func (in *fabricInputs) specs(eps []netsim.EndpointID) []netsim.FlowSpec {
	out := make([]netsim.FlowSpec, len(in.flows))
	for i, f := range in.flows {
		out[i] = netsim.FlowSpec{Src: eps[f.Src], Dst: eps[f.Dst], Demand: f.Gbps, Class: netsim.BestEffort}
	}
	return out
}

// admit bulk-starts specs and counts every flow as one operation.
func admit(h *harness, f *netsim.Fabric, specs []netsim.FlowSpec) []netsim.FlowID {
	ids := f.StartFlows(specs)
	admitted := 0
	for _, id := range ids {
		if id >= 0 {
			admitted++
		}
	}
	h.admitted(admitted, len(specs))
	return ids
}

func runFabricChurn(h *harness) error {
	var in *fabricInputs
	h.beginSetup()
	for i := 0; i < h.sz.Setups; i++ {
		var err error
		h.setup = append(h.setup, h.call("setup", func() {
			if in, err = fabricSetup(h); err == nil {
				_, _, err = in.s.NewFabric()
			}
		}))
		if err != nil {
			return err
		}
	}
	n := len(in.flows)
	k := n / 10

	var rs repSamples
	var fab *netsim.Fabric
	var specs []netsim.FlowSpec
	rerouted := -1
	start := time.Now()
	for rep := 0; h.moreReps(start, rs.wall); rep++ {
		h.beginRep(rep)
		var bulk, event float64
		var cycles samples
		mallocs, alloc := memDelta(func() {
			rs.wall = append(rs.wall, h.call("fabric-churn.rep", func() {
				var eps []netsim.EndpointID
				var err error
				h.call("netsim.New", func() { fab, eps, err = in.s.NewFabric() })
				if !h.must(err, "NewFabric") {
					return
				}
				specs = in.specs(eps)
				var ids []netsim.FlowID
				bulk = h.call("netsim.StartFlows.bulk", func() { ids = admit(h, fab, specs) })

				for c := 0; c < h.sz.ChurnCycles; c++ {
					lo, hi := c*k, (c+1)*k
					cycles = append(cycles, h.call("fabric-churn.cycle", func() {
						h.call("netsim.StopFlows", func() {
							h.ok(fab.StopFlows(ids[lo:hi]) == k, "StopFlows stopped fewer than %d", k)
						})
						h.call("netsim.StartFlows.churn", func() { copy(ids[lo:hi], admit(h, fab, specs[lo:hi])) })
					}))
					h.ok(fab.NumFlows() == n, "cycle %d left %d flows, want %d", c, fab.NumFlows(), n)
				}

				var moved []netsim.FlowID
				event = h.call("netsim.FailBP", func() { moved = fab.FailBP(in.bp) })
				event += h.call("netsim.RepairBP", func() { fab.RepairBP(in.bp) })
				h.ok(fab.NumFlows() == n, "repair left %d flows, want %d", fab.NumFlows(), n)
				h.ok(rerouted < 0 || rerouted == len(moved), "rerouted %d flows, earlier repetition %d", len(moved), rerouted)
				rerouted = len(moved)

				h.call("netsim.Tick", func() { h.must(fab.Tick(3600), "Tick") })
				h.call("netsim.UsageByEndpoint", func() {
					h.ok(len(fab.UsageByEndpoint()) > 0, "no endpoint usage after an hour")
				})
			}))
		})
		rs.add(bulk, cycles.median()*1e3, event, mallocs, alloc)
	}
	h.record(&rs)
	h.pins["fabric-churn.rerouted"] = strconv.Itoa(rerouted)
	h.pins["fabric-churn.admitted"] = strconv.Itoa(n)

	if !h.trace || fab == nil {
		return nil
	}
	tr := h.tr
	h.setLayer("topo.build_ms", tr.durations("topo.NewScenario").scale(1e3))
	h.setLayer("traffic.sample_flows_ms", tr.durations("traffic.SampleFlows").scale(1e3))
	h.setLayer("netsim.admit_us_per_flow", tr.durations("netsim.StartFlows.bulk").scale(1e6/float64(n)))
	h.setLayer("netsim.stop_us_per_flow", tr.durations("netsim.StopFlows").scale(1e6/float64(k)))
	h.setLayer("netsim.failbp_ms", tr.durations("netsim.FailBP").scale(1e3))
	h.setLayer("netsim.repairbp_ms", tr.durations("netsim.RepairBP").scale(1e3))
	h.setLayerValue("netsim.rerouted", float64(rerouted))
	h.setLayer("netsim.tick_ms", tr.durations("netsim.Tick").scale(1e3))
	h.setLayer("netsim.usage_ms", tr.durations("netsim.UsageByEndpoint").scale(1e3))

	tr.rep, tr.on = -1, true
	root := tr.begin("fabric-churn.probes")
	defer tr.end(root)

	// Allocations of one bulk admission into an empty fabric.
	empty, eps, err := in.s.NewFabric()
	if h.must(err, "NewFabric") {
		bound := in.specs(eps)
		_, allocs := probe(1, func() { admit(h, empty, bound) })
		h.setLayerValue("netsim.admit_allocs", allocs/float64(n))
	}

	// The non-bulk path, on the loaded fabric of the last repetition.
	singles := h.sz.SingleFlows
	i := 0
	sec, _ := probe(singles, func() {
		sp := specs[i%n]
		i++
		fl, err := fab.StartFlow(sp.Src, sp.Dst, sp.Demand, sp.Class)
		if err != nil {
			h.fail("single StartFlow: %v", err)
			return
		}
		if err := fab.StopFlow(fl.ID); err != nil {
			h.fail("single StopFlow: %v", err)
		}
	})
	h.attempted += singles
	h.setLayerValue("netsim.single_start_us", sec*1e6)

	// Point-to-point routing over the offered graph, on sampled pairs.
	g, _ := in.s.Network.Graph(nil)
	pr := graph.NewPointRouter(g)
	var buf []graph.EdgeID
	i = 0
	sec, _ = probe(singles, func() {
		f := in.flows[i%n]
		i++
		buf, _ = pr.PathInto(buf[:0], graph.NodeID(f.Src), graph.NodeID(f.Dst), nil)
	})
	h.setLayerValue("graph.point_path_us", sec*1e6)
	return nil
}
