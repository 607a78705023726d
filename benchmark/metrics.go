package main

// The declarations below are the benchmark's vocabulary. BENCHMARK.json
// at the repository root repeats them for the driver; the package test
// fails when the two drift apart.

// workloadDecl names one workload and why it exists.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*harness) error
}

var workloads = []workloadDecl{
	{"lease-cycle", "zoo instance through core: C1-C3 auctions, turn-up, BP outage, re-lease; auction+provision with a private memo and no decomposition", runLeaseCycle},
	{"continental-wd", "800-link synth auction three ways: separable cold (decomposed), bordered cold (connected fallback), warm from a persisted cache; netsim and pocd idle", runContinentalWD},
	{"fabric-churn", "netsim alone: bulk admission, stop/start churn and BP fail/repair over one flow table; auction and provision idle", runFabricChurn},
	{"pocd-tenants", "journaled daemon over loopback HTTP: closed-loop saturation, open-loop paced latency, recovery from the sealed journal; fsync only in the traced run, the disk drifts", runPocdTenants},
}

// metricDecl declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Every workload reports every end-to-end metric. The three phase
// metrics name a role, and each workload fills the role with its own
// phase (README.md has the table):
//
//	            lease-cycle            continental-wd      fabric-churn        pocd-tenants
//	bulk_s      C1+C2+C3 RunAuction    sep cold Run        bulk StartFlows     closed-loop sat phase
//	steady_ms   turn-up per deployment warm LoadFile+Run   one churn cycle     paced mutation p50
//	event_s     BP outage + re-lease   conn cold Run       FailBP+RepairBP     recovery from journal
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"bulk_s", "s", "lower", 0.25},
	{"steady_ms", "ms", "lower", 0.25},
	{"event_s", "s", "lower", 0.25},
	{"allocs_m", "1e6", "lower", 0.10},
	{"alloc_mb", "MB", "lower", 0.10},
}

var perLayer = []metricDecl{
	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.gravity_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.sample_flows_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.sssp_us", Unit: "us", Better: "lower"},
	{Name: "graph.sssp_allocs", Unit: "count", Better: "lower"},
	{Name: "graph.point_path_us", Unit: "us", Better: "lower"},
	{Name: "partition.components_us", Unit: "us", Better: "lower"},
	{Name: "provision.check_ms.c1", Unit: "ms", Better: "lower"},
	{Name: "provision.check_ms.c2", Unit: "ms", Better: "lower"},
	{Name: "provision.check_ms.c3", Unit: "ms", Better: "lower"},
	{Name: "provision.check_ms.synth", Unit: "ms", Better: "lower"},
	{Name: "provision.check_allocs", Unit: "count", Better: "lower"},
	{Name: "provision.route_ms", Unit: "ms", Better: "lower"},
	{Name: "provision.checkcore_ms", Unit: "ms", Better: "lower"},
	{Name: "provision.ns_per_check", Unit: "ns", Better: "lower"},
	{Name: "provision.shave_ms", Unit: "ms", Better: "lower"},
	{Name: "provision.cache_hits", Unit: "count", Better: "higher"},
	{Name: "provision.cache_misses", Unit: "count", Better: "lower"},
	{Name: "provision.decompositions", Unit: "count", Better: "higher"},
	{Name: "provision.shave_hits", Unit: "count", Better: "higher"},
	{Name: "provision.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "provision.cache_save_ms", Unit: "ms", Better: "lower"},
	{Name: "provision.cache_load_ms", Unit: "ms", Better: "lower"},
	{Name: "provision.cache_file_kb", Unit: "kB", Better: "lower"},
	{Name: "auction.run_s.c1", Unit: "s", Better: "lower"},
	{Name: "auction.run_s.c2", Unit: "s", Better: "lower"},
	{Name: "auction.run_s.c3", Unit: "s", Better: "lower"},
	{Name: "auction.checks", Unit: "count", Better: "lower"},
	{Name: "auction.memo_hits", Unit: "count", Better: "higher"},
	{Name: "auction.memo_misses", Unit: "count", Better: "lower"},
	{Name: "auction.workers1_s.c2", Unit: "s", Better: "lower"},
	{Name: "auction.par_speedup", Unit: "x", Better: "higher"},
	{Name: "obs.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "obs.export_us", Unit: "us", Better: "lower"},
	{Name: "core.activate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.start_flows_us_per_flow", Unit: "us", Better: "lower"},
	{Name: "core.bill_epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reauction_s", Unit: "s", Better: "lower"},
	{Name: "core.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "chaos.run_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.admit_us_per_flow", Unit: "us", Better: "lower"},
	{Name: "netsim.admit_allocs", Unit: "count", Better: "lower"},
	{Name: "netsim.stop_us_per_flow", Unit: "us", Better: "lower"},
	{Name: "netsim.failbp_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.repairbp_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.rerouted", Unit: "count", Better: "lower"},
	{Name: "netsim.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.usage_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.single_start_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_nofsync_us", Unit: "us", Better: "lower"},
	{Name: "journal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "journal.replay_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pocd.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pocd.fsync_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pocd.fsync_op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pocd.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "pocd.slo_miss_frac", Unit: "fraction", Better: "lower"},
	{Name: "pocd.gen_late_ms", Unit: "ms", Better: "lower"},
	{Name: "pocd.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pocd.start_flows_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pocd.stop_flows_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pocd.bill_epoch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pocd.build_s", Unit: "s", Better: "lower"},
	{Name: "pocd.replay_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pocd.shed", Unit: "count", Better: "lower"},
	{Name: "pocd.timeouts", Unit: "count", Better: "lower"},
	{Name: "pocd.degraded_reads", Unit: "count", Better: "lower"},
	{Name: "pocd.rate_limited", Unit: "count", Better: "lower"},
	{Name: "fleet.golden_cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "bench.machine_slowness", Unit: "x", Better: "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// sizes fixes how much work each workload does. The defaults are what
// BENCHMARK.json measures; the package test runs toy sizes.
type sizes struct {
	MinReps int // repetitions that always run, however long they take
	Setups  int // set-ups per run; setup_s is their median
	ProbeK  int // calls per steady-state probe

	LeaseScale  float64
	LeaseFlows  int
	ChaosEpochs int
	// OutageBP fails and is re-leased around. Withdrawing a BP must
	// leave every other BP replaceable, or the re-lease cannot price
	// its Clarke pivots; at the default scale BP 0 offers the most
	// links (44 of 303) and passes.
	OutageBP int

	SynthLinks int // routers = links/4, 8 regions, 4 BPs each
	WarmReruns int

	FabricScale float64
	FabricFlows int
	ChurnCycles int
	SingleFlows int // single StartFlow/StopFlow pairs in the non-bulk probe

	PocdScale     float64
	PocdSetups    int
	PocdRecovers  int // recoveries of the sealed journal; event_s is their median
	PocdSatRate   int // closed-loop ops per measured second; the phase runs seconds x this many ops
	PocdPacedRate int // open-loop ops/s, kept up for half the measured seconds
	PocdBatch     int
	PocdNoFsync   bool // the traced run's durable daemon skips fsync too (the package test)
	JournalProbe  int  // appends per journal probe
}

var defaultSizes = sizes{
	MinReps: 3, Setups: 25, ProbeK: 50,
	LeaseScale: 0.3, LeaseFlows: 20000, ChaosEpochs: 8,
	SynthLinks: 800, WarmReruns: 15,
	FabricScale: 0.35, FabricFlows: 30000, ChurnCycles: 5, SingleFlows: 10000,
	PocdScale: 0.3, PocdSetups: 3, PocdRecovers: 5, PocdSatRate: 500, PocdPacedRate: 400, PocdBatch: 16, JournalProbe: 500,
}
