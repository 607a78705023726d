package poc

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/provision"
)

// The goldens below were captured on the map[int]bool seed
// implementation (pre-bitset), hashing every float in full hex
// precision. The bitset/workspace engine must reproduce them
// bit-for-bit: the dense LinkSet and the reusable arenas are pure
// representation changes, so any drift here is a correctness bug,
// not an acceptable perf trade-off (DESIGN.md §10).
//
// Floats hash via strconv.FormatFloat(x, 'x', -1, 64), so the test
// is exact, not tolerance-based. The scenario generator is seeded;
// same platform => same paths, same arithmetic, same bytes.

type auctionGolden struct {
	selected  int
	checks    int
	totalCost string
	virtual   string
	hash      string
}

var seedAuctionGoldens = map[Constraint]auctionGolden{
	Constraint1: {33, 26, "0x1.3e260f546996p+20", "0x0p+00",
		"cabb77e5286c49f6418adeb166f636e3be593b900e010aef098b3fce73dcada6"},
	Constraint2: {32, 24, "0x1.52c36be72937ap+20", "0x0p+00",
		"c41467d8a0738c25a795dec81841b4c1317aeea274cd91d2bb162f7f97557b86"},
	Constraint3: {33, 24, "0x1.4e7f22666bf02p+20", "0x0p+00",
		"83dc56513b39397345ec8cc5c38839871dfbf354f95e10bce2c8a10693e89c2a"},
}

const (
	seedObsExportLen  = 3174
	seedObsExportHash = "40ed8921be983569a5fce966fd60a87da03b7e283584c158be5a96723852208d"

	seedRouteAsgCount   = 132
	seedRouteHash       = "9df7289315c236ff270d1472b887e2d1cc74abc54b33bb9d8615e7cdf7acdd6a"
	seedRouteSubsetHash = "3cc9ce8f58a919e8988f4ec87f2894a97f29800e358d015684f84a9b82cef048"
)

func hashAuction(res *auction.Result) string {
	var ids []int
	for id := range res.Selected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d,", id)
	}
	var as []int
	for a := range res.Payments {
		as = append(as, a)
	}
	sort.Ints(as)
	for _, a := range as {
		fmt.Fprintf(h, "p%d=%s;a%d=%s;c%d=%s;", a,
			strconv.FormatFloat(res.Payments[a], 'x', -1, 64), a,
			strconv.FormatFloat(res.Alternative[a], 'x', -1, 64), a,
			strconv.FormatFloat(res.BPCost[a], 'x', -1, 64))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// routedPairs counts the pairs Visit reports.
func routedPairs(res *provision.Routing) int {
	n := 0
	res.Visit(func(int, int, []provision.PathAssignment) { n++ })
	return n
}

func hashRouting(res *provision.Routing) string {
	h := sha256.New()
	res.Visit(func(src, dst int, asgs []provision.PathAssignment) {
		fmt.Fprintf(h, "%d-%d:", src, dst)
		for _, a := range asgs {
			fmt.Fprintf(h, "%s:", strconv.FormatFloat(a.Gbps, 'x', -1, 64))
			for _, l := range a.Links {
				fmt.Fprintf(h, "%d,", l)
			}
			fmt.Fprint(h, ";")
		}
	})
	res.VisitUsed(func(id int, gbps float64) {
		fmt.Fprintf(h, "u%d=%s;", id, strconv.FormatFloat(gbps, 'x', -1, 64))
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestAuctionMatchesSeedGoldens runs winner determination for every
// constraint at Workers 1 and 4 and requires the exact seed outcome:
// selection, check count, every payment/alternative/cost float, and
// the total. Workers=4 shares one workspace across counterfactual
// goroutines, so this also pins the per-worker arena handoff.
func TestAuctionMatchesSeedGoldens(t *testing.T) {
	for c := Constraint1; c <= Constraint3; c++ {
		want := seedAuctionGoldens[c]
		for _, workers := range []int{1, 4} {
			s, err := NewScenario(ScenarioOptions{Scale: 0.12})
			if err != nil {
				t.Fatal(err)
			}
			inst := s.Instance(c, 0)
			inst.Workers = workers
			res, err := inst.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Selected) != want.selected {
				t.Errorf("%v workers=%d: selected %d links, seed selected %d",
					c, workers, len(res.Selected), want.selected)
			}
			if res.Checks != want.checks {
				t.Errorf("%v workers=%d: %d checks, seed ran %d",
					c, workers, res.Checks, want.checks)
			}
			if got := strconv.FormatFloat(res.TotalCost, 'x', -1, 64); got != want.totalCost {
				t.Errorf("%v workers=%d: total cost %s, seed %s", c, workers, got, want.totalCost)
			}
			if got := strconv.FormatFloat(res.VirtualCost, 'x', -1, 64); got != want.virtual {
				t.Errorf("%v workers=%d: virtual cost %s, seed %s", c, workers, got, want.virtual)
			}
			if got := hashAuction(res); got != want.hash {
				t.Errorf("%v workers=%d: outcome hash %s, seed %s", c, workers, got, want.hash)
			}
		}
	}
}

// TestObsExportMatchesSeedGolden pins the full deterministic metrics
// export (auction + fabric counters serialized to canonical JSON)
// byte-for-byte against the seed.
func TestObsExportMatchesSeedGolden(t *testing.T) {
	out := metricsExport(t, 1)
	if len(out) != seedObsExportLen {
		t.Errorf("export length %d, seed %d", len(out), seedObsExportLen)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != seedObsExportHash {
		t.Errorf("export hash %s, seed %s", got, seedObsExportHash)
	}
}

// Fabric goldens: captured on the pointer-per-flow seed fabric
// (map[FlowID]*Flow, per-flow []int paths, map-of-map crossing
// indexes). The struct-of-arrays engine must reproduce every float —
// allocations, latencies, transferred volume, residuals — bit for
// bit. Flow identity is hashed by admission order and endpoints, not
// by raw FlowID values: generation-tagged IDs change the numeric IDs
// without changing any observable flow state.
const (
	seedFabricFlows     = 164
	seedFabricFailed    = 0
	seedFabricStateHash = "b1ecd1b5a2f8986ca89d15e038e77f677bf7d8800dc820c49b8984e81e0e6768"
	seedFabricChaosHash = "f8b773264c2d6afa9951baa5585615a8299dc36c342ac8d1e47ec3a1c6a41e40"
)

// fabricWorkload drives a deterministic fabric lifecycle over the
// scenario network: admission waves with mixed QoS classes (including
// local, degraded, and rejected flows), multicast trees, anycast,
// partial stops, correlated link failures, a full BP outage and
// repair, and billing ticks. Slot reuse matters: the second wave
// admits into capacity freed by the stops, so a free-list engine
// exercises recycled slots here.
func fabricWorkload(t *testing.T) *netsim.Fabric {
	t.Helper()
	s, err := NewScenario(ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	f := netsim.New(s.Network, nil)
	nr := len(s.Network.Routers)
	kinds := []netsim.EndpointKind{netsim.LMPEndpoint, netsim.CSPEndpoint}
	for r := 0; r < nr; r++ {
		if _, err := f.Attach(fmt.Sprintf("ep%d", r), kinds[r%2], r); err != nil {
			t.Fatal(err)
		}
	}
	gold := netsim.Class{Name: "gold", Weight: 4, Price: 10}
	silver := netsim.Class{Name: "silver", Weight: 2, Price: 5}
	classes := []netsim.Class{netsim.BestEffort, gold, silver}
	var admitted []netsim.FlowID
	admit := func(i int, demand float64) {
		src := netsim.EndpointID((i*7 + 3) % nr)
		dst := netsim.EndpointID((i*5 + 1) % nr)
		fl, err := f.StartFlow(src, dst, demand, classes[i%3])
		if err == nil {
			admitted = append(admitted, fl.ID)
		}
	}
	for i := 0; i < 120; i++ {
		demand := 0.5 + float64(i%17)*0.35
		if i%23 == 0 {
			demand = 180 + float64(i) // force degradation at bottlenecks
		}
		admit(i, demand)
	}
	if _, err := f.StartMulticast(0, []netsim.EndpointID{3, 5, 7, 9}, 2.5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartMulticast(2, []netsim.EndpointID{4, 6}, 1.25); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAnycast("cdn", 1, 4, 8); err != nil {
		t.Fatal(err)
	}
	for _, src := range []netsim.EndpointID{6, 11} {
		if _, _, err := f.StartAnycastFlow(src, "cdn", 3.5, gold); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Tick(3600); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(admitted); i += 7 {
		if err := f.StopFlow(admitted[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Correlated cut (with junk entries that must be skipped), then a
	// full BP outage on a BP that actually carries flows.
	sel := f.SelectedLinks()
	f.FailLinks([]int{-1, sel[len(sel)/3], sel[len(sel)/3], sel[2*len(sel)/3], 1 << 20})
	if err := f.Tick(1800); err != nil {
		t.Fatal(err)
	}
	var bp = -2
	for _, fl := range f.Flows() {
		if len(fl.Links) > 0 {
			bp = s.Network.Links[fl.Links[0]].BP
			break
		}
	}
	if bp == -2 {
		t.Fatal("no routed flow in workload")
	}
	f.FailBP(bp)
	if err := f.Tick(900); err != nil {
		t.Fatal(err)
	}
	f.RepairBP(bp)
	f.RepairLinks([]int{sel[len(sel)/3], sel[2*len(sel)/3]})
	// Second admission wave into freed capacity (recycled slots).
	for i := 120; i < 180; i++ {
		admit(i, 0.25+float64(i%11)*0.4)
	}
	if err := f.Tick(600); err != nil {
		t.Fatal(err)
	}
	return f
}

// hashFabricState hashes every observable of the fabric except raw
// FlowID values: flow snapshots in admission order, multicast trees,
// utilization, per-endpoint usage, and the failed/selected link sets.
func hashFabricState(f *netsim.Fabric) string {
	h := sha256.New()
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	for _, fl := range f.Flows() {
		fmt.Fprintf(h, "f:s%d:d%d:%s:%s:%s:%s:%s:w%s:", fl.Src, fl.Dst,
			hex(fl.Demand), hex(fl.Allocated), hex(fl.LatencyKm),
			hex(fl.TransferredGB), fl.Class.Name, hex(fl.Class.Weight))
		for _, l := range fl.Links {
			fmt.Fprintf(h, "%d,", l)
		}
		fmt.Fprint(h, ";")
	}
	for _, m := range f.Multicasts() {
		fmt.Fprintf(h, "m:s%d:%s:", m.Src, hex(m.Gbps))
		for _, l := range m.TreeLinks {
			fmt.Fprintf(h, "%d,", l)
		}
		for _, r := range m.Reached {
			fmt.Fprintf(h, "r%d,", r)
		}
		fmt.Fprint(h, ";")
	}
	for _, lu := range f.Utilization() {
		fmt.Fprintf(h, "u%d=%s;", lu.Link, hex(lu.Utilization))
	}
	usage := f.UsageByEndpoint()
	var eps []int
	for ep := range usage {
		eps = append(eps, int(ep))
	}
	sort.Ints(eps)
	for _, ep := range eps {
		fmt.Fprintf(h, "e%d=%s;", ep, hex(usage[netsim.EndpointID(ep)]))
	}
	for _, l := range f.FailedLinks() {
		fmt.Fprintf(h, "x%d,", l)
	}
	for _, l := range f.SelectedLinks() {
		fmt.Fprintf(h, "l%d,", l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFabricMatchesSeedGoldens pins the full fabric lifecycle — every
// allocation, residual, latency and transferred-volume float — against
// the pre-refactor pointer-per-flow engine.
func TestFabricMatchesSeedGoldens(t *testing.T) {
	f := fabricWorkload(t)
	if n := len(f.Flows()); n != seedFabricFlows {
		t.Errorf("workload left %d flows, seed left %d", n, seedFabricFlows)
	}
	if n := len(f.FailedLinks()); n != seedFabricFailed {
		t.Errorf("workload left %d failed links, seed left %d", n, seedFabricFailed)
	}
	if got := hashFabricState(f); got != seedFabricStateHash {
		t.Errorf("fabric state hash %s, seed %s", got, seedFabricStateHash)
	}
}

// TestChaosReportMatchesSeedGolden pins the rendered chaos
// survivability report — escalation ladder outcomes, per-class
// delivered fractions, reroute tallies — byte-for-byte against the
// seed fabric. TestChaosReportDeterminism only proves the report is
// stable; this pins its actual bytes across the refactor.
func TestChaosReportMatchesSeedGolden(t *testing.T) {
	rep := chaosSurvivabilityReport(t, 1)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rep))); got != seedFabricChaosHash {
		t.Errorf("chaos report hash %s, seed %s", got, seedFabricChaosHash)
	}
}

// TestRouteMatchesSeedGolden pins a full greedy routing — every path,
// split and used-capacity float — on the complete link set and on a
// strict subset (the bitset include path).
func TestRouteMatchesSeedGolden(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	res := provision.Route(s.Network, nil, s.TM, provision.Options{}, nil)
	if routedPairs(res) != seedRouteAsgCount || res.Unplaced != 0 {
		t.Errorf("asg=%d unplaced=%v, seed asg=%d unplaced=0",
			routedPairs(res), res.Unplaced, seedRouteAsgCount)
	}
	if got := hashRouting(res); got != seedRouteHash {
		t.Errorf("route hash %s, seed %s", got, seedRouteHash)
	}

	include := linkset.New(len(s.Network.Links))
	for id := range s.Network.Links {
		if id%7 != 0 {
			include.Add(id)
		}
	}
	res2 := provision.Route(s.Network, include, s.TM, provision.Options{}, nil)
	if routedPairs(res2) != seedRouteAsgCount || res2.Unplaced != 0 || res2.Ejected != 0 {
		t.Errorf("subset asg=%d unplaced=%v ejected=%v, seed asg=%d unplaced=0 ejected=0",
			routedPairs(res2), res2.Unplaced, res2.Ejected, seedRouteAsgCount)
	}
	if got := hashRouting(res2); got != seedRouteSubsetHash {
		t.Errorf("subset route hash %s, seed %s", got, seedRouteSubsetHash)
	}
}
