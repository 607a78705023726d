package poc

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/chaos"
	"github.com/public-option/poc/internal/federation"
	"github.com/public-option/poc/internal/fleet"
	"github.com/public-option/poc/internal/interdomain"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// TestAuctionDeterminismAcrossWorkers is the regression gate for the
// parallel winner determination: the auction is a published algorithm
// ("an open algorithm so that it cannot be accused of favoritism"), so
// parallelism may only reorder work, never change answers. A serial
// (Workers: 1) and a parallel (Workers: 4) run of the same instance
// must agree bit for bit on the selection, its cost, every payment,
// every counterfactual cost, and even the check count.
func TestAuctionDeterminismAcrossWorkers(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	for c := Constraint1; c <= Constraint3; c++ {
		serialInst := s.Instance(c, 0)
		serialInst.Workers = 1
		serial, err := serialInst.Run()
		if err != nil {
			t.Fatalf("%v serial: %v", c, err)
		}

		parInst := s.Instance(c, 0)
		parInst.Workers = 4
		par, err := parInst.Run()
		if err != nil {
			t.Fatalf("%v parallel: %v", c, err)
		}

		if len(serial.Selected) != len(par.Selected) {
			t.Fatalf("%v: |SL| serial=%d parallel=%d", c, len(serial.Selected), len(par.Selected))
		}
		for id := range serial.Selected {
			if !par.Selected[id] {
				t.Fatalf("%v: link %d selected serially but not in parallel", c, id)
			}
		}
		// Bit-for-bit: no epsilon. The parallel run must execute the
		// exact same arithmetic.
		if serial.TotalCost != par.TotalCost {
			t.Fatalf("%v: C(SL) serial=%v parallel=%v", c, serial.TotalCost, par.TotalCost)
		}
		for a := range serial.Payments {
			if serial.Payments[a] != par.Payments[a] {
				t.Fatalf("%v: P_%d serial=%v parallel=%v", c, a, serial.Payments[a], par.Payments[a])
			}
			if serial.Alternative[a] != par.Alternative[a] {
				t.Fatalf("%v: C(SL_-%d) serial=%v parallel=%v", c, a, serial.Alternative[a], par.Alternative[a])
			}
			if serial.BPCost[a] != par.BPCost[a] {
				t.Fatalf("%v: C_%d serial=%v parallel=%v", c, a, serial.BPCost[a], par.BPCost[a])
			}
		}
		if serial.Checks != par.Checks {
			t.Fatalf("%v: checks serial=%d parallel=%d", c, serial.Checks, par.Checks)
		}
		if serial.VirtualCost != par.VirtualCost {
			t.Fatalf("%v: virtual cost serial=%v parallel=%v", c, serial.VirtualCost, par.VirtualCost)
		}
	}
}

// chaosSurvivabilityReport runs a fixed chaos experiment — seeded
// stochastic cuts plus a scripted BP outage over a scenario-built POC
// — and returns the rendered survivability report.
func chaosSurvivabilityReport(t *testing.T, workers int) string {
	t.Helper()
	s, err := NewScenario(ScenarioOptions{Scale: 0.12, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := s.Deploy(Constraint1)
	if err != nil {
		t.Fatal(err)
	}
	gold := QoSClass{Name: "gold", Weight: 4, Price: 10}
	for i := 0; i < 4; i++ {
		if _, err := p.AttachLMP(string(rune('a'+i)), i, PeeringPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	var firstFlow *netsim.Flow
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			class := BestEffort
			if (i+j)%2 == 1 {
				class = gold
			}
			fl, err := p.StartFlow(string(rune('a'+i)), string(rune('a'+j)), 2+float64(i+j), class)
			if err != nil {
				t.Fatal(err)
			}
			if firstFlow == nil && len(fl.Links) > 0 {
				firstFlow = fl
			}
		}
	}
	if firstFlow == nil {
		t.Fatal("no flow took any links")
	}
	sched := RandomChaos(11, 8, p.Fabric().SelectedLinks(), 0.15, 2)
	sched.Merge(SingleBPOutage(p.Network().Links[firstFlow.Links[0]].BP, 1, 5))
	eng, err := NewChaosEngine(p, sched, DefaultRecoveryConfig(chaos.Recall))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	return rep.String()
}

// TestChaosReportDeterminism is the survivability analogue of the
// auction gate: the same chaos seed and schedule must render a
// byte-identical report across runs and across Workers settings —
// fault injection and recovery may never depend on scheduling luck.
func TestChaosReportDeterminism(t *testing.T) {
	base := chaosSurvivabilityReport(t, 1)
	if base == "" {
		t.Fatal("empty survivability report")
	}
	if again := chaosSurvivabilityReport(t, 1); again != base {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", base, again)
	}
	if par := chaosSurvivabilityReport(t, 4); par != base {
		t.Fatalf("report changed with Workers=4:\n%s\n---\n%s", base, par)
	}
}

// metricsExport runs a full observed lifecycle — auction, activation,
// flows, a billing epoch, and the chaos experiment from
// chaosSurvivabilityReport — with one registry threaded through every
// layer, and returns the exported JSON ledger.
func metricsExport(t *testing.T, workers int) []byte {
	t.Helper()
	reg := NewObserver()
	s, err := NewScenario(ScenarioOptions{Scale: 0.12, Workers: workers, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := s.Deploy(Constraint1)
	if err != nil {
		t.Fatal(err)
	}
	gold := QoSClass{Name: "gold", Weight: 4, Price: 10}
	for i := 0; i < 4; i++ {
		if _, err := p.AttachLMP(string(rune('a'+i)), i, PeeringPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	var links []int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			class := BestEffort
			if (i+j)%2 == 1 {
				class = gold
			}
			fl, err := p.StartFlow(string(rune('a'+i)), string(rune('a'+j)), 2+float64(i+j), class)
			if err != nil {
				t.Fatal(err)
			}
			if links == nil && len(fl.Links) > 0 {
				links = fl.Links
			}
		}
	}
	if _, err := p.BillEpoch(6 * 3600); err != nil {
		t.Fatal(err)
	}
	sched := RandomChaos(11, 8, p.Fabric().SelectedLinks(), 0.15, 2)
	sched.Merge(SingleBPOutage(p.Network().Links[links[0]].BP, 1, 5))
	eng, err := NewChaosEngine(p, sched, DefaultRecoveryConfig(chaos.Recall))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(8); err != nil {
		t.Fatal(err)
	}
	out, err := reg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsExportDeterminism is the observability analogue of the
// auction and chaos gates: the exported poc-obs/v1 ledger — counters,
// histograms with float min/max, timelines, spans on the monotonic
// step clock — must be byte-identical across runs and across Workers
// settings. This is the strictest determinism check in the repo: any
// wall-clock leakage, map-ordered float accumulation, or
// scheduling-dependent counter anywhere in auction, provision, netsim,
// core, or chaos shows up here as a byte diff.
func TestMetricsExportDeterminism(t *testing.T) {
	base := metricsExport(t, 1)
	if len(base) == 0 || !bytes.Contains(base, []byte(`"schema":"poc-obs/v1"`)) {
		t.Fatalf("implausible export:\n%s", base)
	}
	// The ledger must actually cover all four instrumented layers —
	// an empty registry is trivially deterministic.
	for _, key := range []string{
		`"auction.runs"`, `"provision.check.computed.c1"`,
		`"netsim.flows.admitted"`, `"core.epochs"`, `"chaos.escalations"`,
	} {
		if !bytes.Contains(base, []byte(key)) {
			t.Fatalf("export missing %s:\n%s", key, base)
		}
	}
	if again := metricsExport(t, 1); !bytes.Equal(base, again) {
		t.Fatalf("same inputs, different metrics exports:\n%s\n---\n%s", base, again)
	}
	if par := metricsExport(t, 4); !bytes.Equal(base, par) {
		t.Fatalf("metrics export changed with Workers=4:\n%s\n---\n%s", base, par)
	}

	// A failed auction leaves what it recorded in the registry, and a
	// pocd that journaled a failed reauction replays it on whatever core
	// count the replay host has: that export is held to the same bar.
	failed := failedAuctionExport(t, 1)
	if par := failedAuctionExport(t, 4); !bytes.Equal(failed, par) {
		t.Fatalf("failed-auction export changed with Workers=4:\n%s\n---\n%s", failed, par)
	}
}

// failedAuctionExport runs one auction that fails into a fresh registry
// and returns the export. At Scale 0.2 several BPs are irreplaceable,
// BP 2 the first of them, so Run errors only after the counterfactuals
// recorded their checks — which of them ran must not depend on Workers.
func failedAuctionExport(t *testing.T, workers int) []byte {
	t.Helper()
	reg := NewObserver()
	s, err := NewScenario(ScenarioOptions{Scale: 0.2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	in := s.Instance(Constraint1, 0)
	in.Workers = workers
	if _, err := in.Run(); err == nil || !strings.Contains(err.Error(), "A(OL−L_2) empty") {
		t.Fatalf("scale 0.2 auction: err = %v, want an empty counterfactual for BP 2", err)
	}
	out, err := reg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSortedIterationDeterminism pins two float folds that once ran in
// map order and changed bytes when fixed: interdomain.TransitBill and
// federation.SegmentUsage accumulate in sorted-ID order. Each result
// must be bit-identical to a reference sum folded explicitly in
// ascending ID order AND bit-identical across repeated calls — with
// ULP-sensitive addends, either reverting to map iteration almost
// surely breaks one of the two. (The third fixed accumulation,
// core.linkPaymentShare, is covered byte-wise by
// TestChaosReportDeterminism through the chaos.Recall ladder, and
// core.BillEpoch's folds by core's TestBillEpochFoldsInMemberOrder.)
func TestSortedIterationDeterminism(t *testing.T) {
	// interdomain: a star AS graph — src and 24 stubs all buy transit
	// from AS 100, so every destination rides a billable provider route.
	it := interdomain.NewTopology()
	src := interdomain.ASN(1)
	if err := it.AddCustomerProvider(src, 100); err != nil {
		t.Fatal(err)
	}
	volume := map[interdomain.ASN]float64{}
	for i := 0; i < 24; i++ {
		dst := interdomain.ASN(200 + i)
		if err := it.AddCustomerProvider(dst, 100); err != nil {
			t.Fatal(err)
		}
		// Non-dyadic addends whose float sum depends on fold order.
		volume[dst] = 0.1*float64(i+1) + 0.013/float64(i+3)
	}
	const price = 0.37
	ref := 0.0
	for i := 0; i < 24; i++ {
		ref += volume[interdomain.ASN(200+i)] * price
	}
	bill, err := it.TransitBill(src, volume, price)
	if err != nil {
		t.Fatal(err)
	}
	if bill != ref {
		t.Fatalf("TransitBill = %v, want ascending-ASN fold %v (iteration order regressed)", bill, ref)
	}
	for i := 0; i < 20; i++ {
		again, err := it.TransitBill(src, volume, price)
		if err != nil {
			t.Fatal(err)
		}
		if again != bill {
			t.Fatalf("TransitBill drifted between calls: %v then %v", bill, again)
		}
	}

	// federation: two line POCs, several ULP-sensitive cross flows.
	line := func() *netsim.Fabric {
		p := &topo.POCNetwork{
			World:   &topo.World{Cities: make([]topo.City, 3)},
			BPs:     make([]topo.BP, 2),
			Routers: []int{0, 1, 2},
		}
		for i := 0; i < 2; i++ {
			p.Links = append(p.Links, topo.LogicalLink{
				ID: i, BP: i, A: i, B: i + 1, Capacity: 10, DistanceKm: 100,
			})
		}
		return netsim.New(p, nil)
	}
	fa, fb := line(), line()
	srcEp, err := fa.Attach("lmp-west", netsim.LMPEndpoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	dstEp, err := fb.Attach("lmp-east", netsim.LMPEndpoint, 2)
	if err != nil {
		t.Fatal(err)
	}
	fed := federation.New()
	a, err := fed.AddMember("poc-a", fa, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fed.AddMember("poc-b", fb, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Connect(a, 2, b, 0, 8); err != nil {
		t.Fatal(err)
	}
	for _, gbps := range []float64{0.7, 1.1, 1.3, 1.7, 2.3} {
		if _, err := fed.StartCrossFlow(a, srcEp, b, dstEp, gbps); err != nil {
			t.Fatal(err)
		}
	}
	fa.Tick(137)
	fb.Tick(137)
	// Reference: fold transferred GB explicitly in flow-ID order (what
	// CrossFlows returns), per member.
	refUsage := map[federation.MemberID]float64{}
	ma, _ := fed.Member(a)
	mb, _ := fed.Member(b)
	for _, cf := range fed.CrossFlows() {
		if fl, err := ma.Fabric.Flow(cf.SrcSegment); err == nil {
			refUsage[cf.SrcMember] += fl.TransferredGB
		}
		if fl, err := mb.Fabric.Flow(cf.DstSegment); err == nil {
			refUsage[cf.DstMember] += fl.TransferredGB
		}
	}
	base := fed.SegmentUsage()
	for m, want := range refUsage {
		if base[m] != want {
			t.Fatalf("SegmentUsage[%d] = %v, want flow-ID-order fold %v (iteration order regressed)", m, base[m], want)
		}
	}
	for i := 0; i < 20; i++ {
		again := fed.SegmentUsage()
		for m, v := range base {
			if again[m] != v {
				t.Fatalf("SegmentUsage[%d] drifted between calls: %v then %v", m, v, again[m])
			}
		}
	}
}

// TestAuctionCacheAblation verifies the feasibility memo never changes
// outcomes: a run with the cache disabled must match a cached run bit
// for bit, and the cached run must actually hit. The batch-refinement
// variant (MaxChecks > 0) is the one that replays sets — it re-tries
// the most expensive links round after round — so that is where the
// hit assertion has teeth.
func TestAuctionCacheAblation(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	const maxChecks = 48
	cachedInst := s.Instance(Constraint1, maxChecks)
	cached, err := cachedInst.Run()
	if err != nil {
		t.Fatal(err)
	}
	rawInst := s.Instance(Constraint1, maxChecks)
	rawInst.NoCache = true
	raw, err := rawInst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cached.TotalCost != raw.TotalCost || len(cached.Selected) != len(raw.Selected) {
		t.Fatalf("cache changed the selection: C(SL) %v vs %v, |SL| %d vs %d",
			cached.TotalCost, raw.TotalCost, len(cached.Selected), len(raw.Selected))
	}
	for a := range cached.Payments {
		if cached.Payments[a] != raw.Payments[a] {
			t.Fatalf("cache changed P_%d: %v vs %v", a, cached.Payments[a], raw.Payments[a])
		}
	}
	if cached.Checks != raw.Checks {
		t.Fatalf("cache changed the check count: %d vs %d (budget semantics must not depend on cache luck)",
			cached.Checks, raw.Checks)
	}
	if cached.CacheHits+cached.CacheMisses != cached.Checks {
		t.Fatalf("cache counters %d+%d don't cover the %d checks",
			cached.CacheHits, cached.CacheMisses, cached.Checks)
	}
	if cached.CacheHits == 0 {
		t.Fatal("feasibility cache never hit on a full auction run")
	}
	if raw.CacheHits != 0 || raw.CacheMisses != 0 {
		t.Fatalf("NoCache run reported cache counters %d/%d", raw.CacheHits, raw.CacheMisses)
	}
	if hr := float64(cached.CacheHits) / float64(cached.Checks); math.IsNaN(hr) || hr < 0 || hr > 1 {
		t.Fatalf("nonsense hit rate %v", hr)
	}
}

// TestFleetWorkerInvariance extends the worker-determinism gate from
// one auction to the whole scenario grid: the 24-cell default sweep
// (two topologies × two traffic models × three constraints × two
// chaos schedules) must merge to byte-identical reports at -workers
// 1, 4 and 8, and again on a rerun — with the feasibility cache shared
// across every cell of a sweep, and the reruns warm from the cache
// file the first sweep saved, so any scheduling leak through the cache
// would surface as drift here.
func TestFleetWorkerInvariance(t *testing.T) {
	grid := fleet.DefaultGrid()
	cacheFile := filepath.Join(t.TempDir(), "fleet.pocfcache")
	sweep := func(workers int) []byte {
		t.Helper()
		// Epochs/FailureScenarios are trimmed below their defaults to
		// keep four full sweeps CI-cheap; they shrink each cell, not
		// the grid, so the invariance property tested is unchanged.
		rep, err := fleet.Run(grid, fleet.Config{
			Workers: workers, CacheFile: cacheFile, Epochs: 6, FailureScenarios: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := sweep(1)
	if len(base) == 0 {
		t.Fatal("empty merged report")
	}
	for _, workers := range []int{4, 8} {
		if got := sweep(workers); !bytes.Equal(got, base) {
			t.Fatalf("-workers %d merged report differs from -workers 1", workers)
		}
	}
	// Run-to-run: a second 8-worker sweep over the now-warm cache.
	if got := sweep(8); !bytes.Equal(got, base) {
		t.Fatal("rerun merged report differs (warm cache leaked into results)")
	}
}

// TestDecomposedAuctionWorkerInvariance extends the Workers gate to the
// continental path: a border-separable topo.GenerateSynth instance
// under Constraint 2, with regional decomposition and an external
// cache. Every counterfactual draws arenas, routings and the demand
// shape from one shared workspace, in scheduling order; the outcome and
// the check count must not notice — cold at Workers 1, 2 and 4, and
// warm from a cache written by SaveFile and read back by LoadFile.
func TestDecomposedAuctionWorkerInvariance(t *testing.T) {
	s := topo.GenerateSynth(topo.SynthConfig{
		Seed: 3, Regions: 4, Routers: 64, Links: 256, BPsPerRegion: 4, Hubs: 2, Pairs: 6, Gbps: 6,
	})
	tm := traffic.NewMatrix(len(s.P.Routers))
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	bids := auction.StandardBids(s.P, auction.DefaultLeasePricing())
	instance := func(workers int) *AuctionInstance {
		return &AuctionInstance{
			Network: s.P, Bids: bids, TM: tm, Constraint: Constraint2,
			RouteOpts: provision.Options{FailureScenarios: 8}, MaxChecks: 40, Workers: workers,
			Cache: provision.NewFeasibilityCache(), Decompose: true,
		}
	}
	run := func(in *AuctionInstance) (string, int) {
		t.Helper()
		res, err := in.Run()
		if err != nil {
			t.Fatalf("Workers %d: %v", in.Workers, err)
		}
		return hashAuction(res), res.Checks
	}

	cold := instance(1)
	wantHash, wantChecks := run(cold)
	if cold.Cache.Stats().Decompositions == 0 {
		t.Fatal("decomposition never engaged on a separable instance")
	}
	for _, workers := range []int{2, 4} {
		if hash, checks := run(instance(workers)); hash != wantHash || checks != wantChecks {
			t.Fatalf("cold Workers %d: outcome %s with %d checks, Workers 1: %s with %d", workers, hash, checks, wantHash, wantChecks)
		}
	}

	file := filepath.Join(t.TempDir(), "feasibility.cache")
	if err := cold.Cache.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		in := instance(workers)
		if _, err := in.Cache.LoadFile(file); err != nil {
			t.Fatal(err)
		}
		if hash, checks := run(in); hash != wantHash || checks != wantChecks {
			t.Fatalf("warm Workers %d: outcome %s with %d checks, cold: %s with %d", workers, hash, checks, wantHash, wantChecks)
		}
		if st := in.Cache.Stats(); st.Misses != 0 || st.DeterminationMisses != 0 {
			t.Fatalf("warm Workers %d missed the loaded cache: %+v", workers, st)
		}
	}
}
