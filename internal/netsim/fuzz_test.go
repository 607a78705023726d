package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/topo"
)

// invariants checks the fabric's conservation laws:
//
//	(1) 0 <= resid[l] <= capacity[l] for every selected link;
//	(2) resid[l] equals capacity[l] minus the ordered sum of
//	    allocations crossing l (flows in admission order, then
//	    multicast trees by ascending ID) — bit-for-bit, not within a
//	    tolerance, because the fabric recomputes residuals as exactly
//	    this sum — and the used[] shadow stays in exact lockstep;
//	(3) every flow's allocation is within [0, demand];
//	(4) the packed crossing indexes hold only live flows, in ascending
//	    admission order, with a consistent total entry count;
//	(5) the shards' degraded registries hold exactly the below-demand
//	    flows;
//	(6) the path memo is exact (checkMemo).
func invariants(t *testing.T, f *Fabric) {
	t.Helper()
	used := make([]float64, len(f.net.Links))
	degraded := 0
	f.RangeFlows(func(fl *Flow) bool {
		if fl.Allocated < -1e-9 || fl.Allocated > fl.Demand+1e-9 {
			t.Fatalf("flow %d allocation %v outside [0,%v]", fl.ID, fl.Allocated, fl.Demand)
		}
		if fl.Allocated < fl.Demand-1e-9 {
			degraded++
		}
		for _, l := range fl.Links {
			used[l] += fl.Allocated
		}
		return true
	})
	for _, m := range f.Multicasts() {
		for _, l := range m.TreeLinks {
			used[l] += m.Gbps
		}
	}
	for id := range f.net.Links {
		if !f.selected.Contains(id) {
			continue
		}
		capacity := f.net.Links[id].Capacity
		if f.resid[id] < -1e-9 || f.resid[id] > capacity+1e-9 {
			t.Fatalf("link %d resid %v outside [0,%v]", id, f.resid[id], capacity)
		}
		if f.resid[id] != capacity-used[id] {
			t.Fatalf("link %d: resid=%v but capacity−assignments=%v (drift %g)",
				id, f.resid[id], capacity-used[id], f.resid[id]-(capacity-used[id]))
		}
		if f.resid[id] != capacity-f.used[id] {
			t.Fatalf("link %d: resid=%v out of lockstep with used=%v", id, f.resid[id], f.used[id])
		}
	}
	entries := 0
	for l, list := range f.flowsOn {
		for i, s := range list {
			if f.tab.seq[s] < 0 {
				t.Fatalf("link %d crossing index holds freed slot %d", l, s)
			}
			if i > 0 && f.tab.seq[list[i-1]] >= f.tab.seq[s] {
				t.Fatalf("link %d crossing index out of admission order at %d", l, i)
			}
		}
		entries += len(list)
	}
	if entries != f.nFlowIdx {
		t.Fatalf("crossing index holds %d entries, counter says %d", entries, f.nFlowIdx)
	}
	registered := 0
	for i := range f.shards {
		for _, s := range f.shards[i].degraded {
			if f.tab.seq[s] < 0 {
				t.Fatalf("shard %d registers freed slot %d as degraded", i, s)
			}
			if int(f.tab.src[s]) != i {
				t.Fatalf("slot %d registered in shard %d but sourced at %d", s, i, f.tab.src[s])
			}
		}
		registered += len(f.shards[i].degraded)
	}
	if registered != degraded {
		t.Fatalf("shards register %d degraded flows, population has %d", registered, degraded)
	}
	checkMemo(t, f)
}

// checkMemo asserts the path memo's exactness on the fabric as it
// stands: for every stored pair and a sweep of demands, wherever the
// stored certificate holds for the fabric's current mask and the
// stored path, the stored path and cost equal a fresh, uncertified
// search's. It returns how many (pair, demand) probes held, so a
// caller can tell the check was not vacuous.
func checkMemo(t *testing.T, f *Fabric) (held int) {
	t.Helper()
	m := &f.memo
	pr := graph.NewPointRouter(f.g)
	for i, n := range m.plen {
		if n < 0 {
			continue
		}
		a, b := graph.NodeID(i/m.routers), graph.NodeID(i%m.routers)
		c, win := m.entry(i)
		for _, demand := range []float64{1e-9, 0.5, 2, 5, 10, 20, 60} {
			mask := f.usable(demand)
			if !c.Holds(mask, win[:n]) {
				continue
			}
			held++
			edges, cost := pr.PathInto(nil, a, b, mask)
			same := cost == m.cost[i] && len(edges) == int(n)
			for k := 0; same && k < len(edges); k++ {
				same = f.linkFor[edges[k]] == win[k]
			}
			if !same {
				t.Fatalf("memo %d->%d at demand %v: links %v at %v, a fresh search %v at %v",
					a, b, demand, win[:n], m.cost[i], edges, cost)
			}
		}
	}
	return held
}

// drain stops every flow and multicast, then asserts each link's
// residual equals its capacity exactly: fail→repair→fail cycles must
// conserve capacity bit-for-bit.
func drain(t *testing.T, f *Fabric) {
	t.Helper()
	for _, fl := range f.Flows() {
		if err := f.StopFlow(fl.ID); err != nil {
			t.Fatalf("stop flow %d: %v", fl.ID, err)
		}
	}
	for _, m := range f.Multicasts() {
		if err := f.StopMulticast(m.ID); err != nil {
			t.Fatalf("stop multicast %d: %v", m.ID, err)
		}
	}
	for id := range f.net.Links {
		if !f.selected.Contains(id) {
			continue
		}
		if f.resid[id] != f.net.Links[id].Capacity {
			t.Fatalf("link %d: resid %v != capacity %v after draining (drift %g)",
				id, f.resid[id], f.net.Links[id].Capacity,
				f.resid[id]-f.net.Links[id].Capacity)
		}
	}
}

// TestFuzzFailureInjection drives a random sequence of flow starts,
// stops, link failures and restores against a mid-size fabric and
// checks the conservation invariants after every operation.
func TestFuzzFailureInjection(t *testing.T) {
	w := topo.DefaultWorld()
	cfg := topo.DefaultZooConfig()
	cfg.NumNetworks = 25
	nets := topo.GenerateZoo(w, cfg)
	p := topo.BuildPOCNetwork(w, nets, 8, 4, 0)
	if len(p.Routers) < 4 || len(p.Links) < 20 {
		t.Fatalf("fixture too small: %s", p.Summary())
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fab := New(p, nil)
		var eps []EndpointID
		for i := 0; i < 6; i++ {
			id, err := fab.Attach(string(rune('a'+i)), LMPEndpoint, rng.Intn(len(p.Routers)))
			if err != nil {
				return false
			}
			eps = append(eps, id)
		}
		var live []FlowID
		failed := map[int]bool{}
		for op := 0; op < 120; op++ {
			switch rng.Intn(5) {
			case 0, 1: // start a flow
				a := eps[rng.Intn(len(eps))]
				b := eps[rng.Intn(len(eps))]
				if a == b {
					continue
				}
				if fl, err := fab.StartFlow(a, b, 1+rng.Float64()*20, BestEffort); err == nil {
					live = append(live, fl.ID)
				}
			case 2: // stop a flow
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				if err := fab.StopFlow(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			case 3: // fail a random link
				l := rng.Intn(len(p.Links))
				if !failed[l] {
					fab.FailLink(l)
					failed[l] = true
				}
			case 4: // restore a failed link
				for l := range failed {
					fab.RepairLink(l)
					delete(failed, l)
					break
				}
			}
			invariants(t, fab)
		}
		// Repair everything, tear everything down: capacity must be
		// conserved bit-for-bit through the fail/repair history.
		for l := range failed {
			fab.RepairLink(l)
		}
		invariants(t, fab)
		drain(t, fab)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzFailRepairCycles hammers the repair path specifically:
// random fail→repair→fail cycles over the whole link set with live
// flows, checking invariants at every step and exact capacity
// conservation after teardown.
func TestFuzzFailRepairCycles(t *testing.T) {
	p := ringNet(50)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fab := New(p, nil)
		var eps []EndpointID
		for i, r := range []int{0, 1, 2, 3} {
			id, err := fab.Attach(string(rune('a'+i)), LMPEndpoint, r)
			if err != nil {
				return false
			}
			eps = append(eps, id)
		}
		// Odd demands so allocations are not representable exactly in
		// few bits — drift would show.
		for i := 0; i < 6; i++ {
			a, b := eps[rng.Intn(len(eps))], eps[rng.Intn(len(eps))]
			if a == b {
				continue
			}
			fab.StartFlow(a, b, 10.0/3.0+rng.Float64()*7, BestEffort)
		}
		for op := 0; op < 100; op++ {
			l := rng.Intn(len(p.Links))
			if fab.LinkFailed(l) {
				fab.RepairLink(l)
			} else {
				fab.FailLink(l)
			}
			invariants(t, fab)
		}
		for _, l := range fab.FailedLinks() {
			fab.RepairLink(l)
		}
		invariants(t, fab)
		drain(t, fab)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFabricOps is the native fuzz entry point (CI runs it briefly
// with -fuzz). Each input byte drives one operation; invariants are
// checked after every step and exact conservation after teardown.
func FuzzFabricOps(f *testing.F) {
	f.Add([]byte{0, 1, 30, 2, 40, 31, 3, 0, 32})
	f.Add([]byte{30, 30, 31, 40, 41, 30, 0, 5})
	f.Add([]byte{72, 35, 61, 45, 75, 63, 90, 28, 70, 65})
	p := ringNet(50)
	f.Fuzz(func(t *testing.T, ops []byte) {
		fab := New(p, nil)
		var eps []EndpointID
		for i, r := range []int{0, 1, 2, 3} {
			id, err := fab.Attach(string(rune('a'+i)), LMPEndpoint, r)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, id)
		}
		var live []FlowID
		for _, op := range ops {
			switch {
			case op < 30: // start a flow; the byte picks endpoints and demand
				a := eps[int(op)%len(eps)]
				b := eps[(int(op)/len(eps))%len(eps)]
				if a == b {
					continue
				}
				if fl, err := fab.StartFlow(a, b, 1+float64(op)/3.0, BestEffort); err == nil {
					live = append(live, fl.ID)
				}
			case op < 40: // fail a link
				fab.FailLink(int(op) % len(p.Links))
			case op < 50: // repair a link
				fab.RepairLink(int(op) % len(p.Links))
			case op < 60: // stop the oldest live flow
				if len(live) > 0 {
					if err := fab.StopFlow(live[0]); err != nil {
						t.Fatal(err)
					}
					live = live[1:]
				}
			case op < 70: // bulk-stop a prefix, with junk IDs mixed in
				k := int(op-60) + 1
				if k > len(live) {
					k = len(live)
				}
				batch := append([]FlowID{-1, 1 << 40}, live[:k]...)
				if stopped := fab.StopFlows(batch); stopped != k {
					t.Fatalf("bulk stop of %d live flows stopped %d", k, stopped)
				}
				live = live[k:]
			case op < 80: // bulk-start a batch of flows
				var specs []FlowSpec
				for i := 0; i < int(op-70)+2; i++ {
					a := eps[i%len(eps)]
					b := eps[(i+int(op))%len(eps)]
					if a == b {
						continue
					}
					specs = append(specs, FlowSpec{
						Src: a, Dst: b, Demand: 1 + float64(int(op)+i)/7.0, Class: BestEffort,
					})
				}
				for _, id := range fab.StartFlows(specs) {
					if id >= 0 {
						live = append(live, id)
					}
				}
			default: // advance the clock
				if err := fab.Tick(float64(op-80) * 0.25); err != nil {
					t.Fatal(err)
				}
			}
			invariants(t, fab)
		}
		for _, l := range fab.FailedLinks() {
			fab.RepairLink(l)
		}
		drain(t, fab)
	})
}

// TestFuzzMulticastLifecycle mixes multicast groups with unicast
// flows and failures.
func TestFuzzMulticastLifecycle(t *testing.T) {
	p := ringNet(50)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fab := New(p, nil)
		var eps []EndpointID
		for i, r := range []int{0, 1, 2, 3} {
			id, err := fab.Attach(string(rune('a'+i)), LMPEndpoint, r)
			if err != nil {
				return false
			}
			eps = append(eps, id)
		}
		var groups []MulticastID
		for op := 0; op < 60; op++ {
			switch rng.Intn(3) {
			case 0:
				src := eps[rng.Intn(len(eps))]
				var rcv []EndpointID
				for _, e := range eps {
					if e != src && rng.Intn(2) == 0 {
						rcv = append(rcv, e)
					}
				}
				if len(rcv) == 0 {
					continue
				}
				if m, err := fab.StartMulticast(src, rcv, 1+rng.Float64()*5); err == nil {
					groups = append(groups, m.ID)
				}
			case 1:
				if len(groups) == 0 {
					continue
				}
				i := rng.Intn(len(groups))
				if err := fab.StopMulticast(groups[i]); err != nil {
					return false
				}
				groups = append(groups[:i], groups[i+1:]...)
			case 2:
				a := eps[rng.Intn(len(eps))]
				b := eps[rng.Intn(len(eps))]
				if a != b {
					fab.StartFlow(a, b, 1+rng.Float64()*5, BestEffort)
				}
			}
			invariants(t, fab)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
