package main

import (
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/partition"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// synthCase is one generated continental instance: the network, its
// hub-sparse demand as a matrix, and the standard bids.
type synthCase struct {
	p    *topo.POCNetwork
	tm   *traffic.Matrix
	bids []auction.Bid
}

// instance is the production configuration of the continental auction
// over a fresh external cache.
func (sc *synthCase) instance() *auction.Instance {
	return &auction.Instance{
		Network: sc.p, Bids: sc.bids, TM: sc.tm,
		Constraint: provision.Constraint2,
		RouteOpts:  provision.Options{FailureScenarios: 8},
		MaxChecks:  40,
		Cache:      provision.NewFeasibilityCache(),
		Decompose:  true,
	}
}

func synthSetup(h *harness, border int) *synthCase {
	cfg := topo.SynthConfig{
		Seed: 1, Regions: 8, Routers: h.sz.SynthLinks / 4, Links: h.sz.SynthLinks, Border: border,
		BPsPerRegion: 4, Hubs: 4, Pairs: 40, Gbps: 6,
	}
	var s *topo.Synth
	h.call("topo.GenerateSynth", func() { s = topo.GenerateSynth(cfg) })
	tm := traffic.NewMatrix(len(s.P.Routers))
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	return &synthCase{p: s.P, tm: tm, bids: auction.StandardBids(s.P, seededPricing(h.seed))}
}

func runContinentalWD(h *harness) error {
	var sep, conn *synthCase
	h.beginSetup()
	for i := 0; i < h.sz.Setups; i++ {
		h.setup = append(h.setup, h.call("setup", func() {
			sep = synthSetup(h, 0)
			conn = synthSetup(h, 8)
		}))
	}

	var rs repSamples
	var sepRes *auction.Result
	var sepStats, warmStats provision.CacheStats
	var fileKB float64
	cacheFile := filepath.Join(h.tmp, "feasibility.cache")
	start := time.Now()
	for rep := 0; h.moreReps(start, rs.wall); rep++ {
		h.beginRep(rep)
		var bulk, event float64
		var warm samples
		mallocs, alloc := memDelta(func() {
			rs.wall = append(rs.wall, h.call("continental-wd.rep", func() {
				in := sep.instance()
				var err error
				var res *auction.Result
				bulk = h.call("auction.Run.sep", func() { res, err = in.Run() })
				if !h.must(err, "sep auction") {
					return
				}
				if sepRes != nil {
					h.ok(hashAuction(res) == hashAuction(sepRes), "sep outcome differs between repetitions")
				}
				sepRes, sepStats = res, in.Cache.Stats()
				h.ok(sepStats.Decompositions > 0, "separable instance never decomposed")

				cin := conn.instance()
				event = h.call("auction.Run.conn", func() { _, err = cin.Run() })
				h.must(err, "conn auction")

				h.call("provision.SaveFile", func() { h.must(in.Cache.SaveFile(cacheFile), "SaveFile") })
				for i := 0; i < h.sz.WarmReruns; i++ {
					win := sep.instance()
					warm = append(warm, h.call("continental-wd.warm", func() {
						h.call("provision.LoadFile", func() {
							_, err := win.Cache.LoadFile(cacheFile)
							h.must(err, "LoadFile")
						})
						h.call("auction.Run.warm", func() { res, err = win.Run() })
					}))
					if h.must(err, "warm auction") {
						h.ok(hashAuction(res) == hashAuction(sepRes), "warm rerun %d differs from the cold outcome", i)
					}
					warmStats = win.Cache.Stats()
				}
			}))
		})
		if fi, err := os.Stat(cacheFile); err == nil {
			fileKB = float64(fi.Size()) / 1e3
		}
		rs.add(bulk, warm.median()*1e3, event, mallocs, alloc)
	}
	h.record(&rs)
	if sepRes == nil {
		return nil
	}
	h.pins["continental-wd.sep.sha"] = hashAuction(sepRes)
	h.pins["continental-wd.checks"] = strconv.Itoa(sepRes.Checks)

	if !h.trace {
		return nil
	}
	tr := h.tr
	h.setLayer("topo.build_ms", tr.durations("topo.GenerateSynth").scale(1e3))
	h.setLayer("auction.run_s.c2", tr.durations("auction.Run.sep"))
	h.setLayerValue("auction.checks", float64(sepRes.Checks))
	h.setLayerValue("provision.ns_per_check", rs.bulk.median()*1e9/float64(max(sepRes.Checks, 1)))
	// Misses and decompositions are those of the cold separable run;
	// hits and shave hits those of a warm rerun, which only reads.
	h.setLayerValue("provision.cache_misses", float64(sepStats.Misses))
	h.setLayerValue("provision.decompositions", float64(sepStats.Decompositions))
	h.setLayerValue("provision.cache_hits", float64(warmStats.Hits))
	h.setLayerValue("provision.shave_hits", float64(warmStats.ShaveHits))
	h.setLayer("provision.cache_save_ms", tr.durations("provision.SaveFile").scale(1e3))
	h.setLayer("provision.cache_load_ms", tr.durations("provision.LoadFile").scale(1e3))
	h.setLayerValue("provision.cache_file_kb", fileKB)

	tr.rep, tr.on = -1, true
	root := tr.begin("continental-wd.probes")
	defer tr.end(root)

	g, _ := sep.p.Graph(nil)
	h.probeSSSP(g)

	sel := linkset.FromMap(sepRes.Selected, len(sep.p.Links))
	sec, _ := probe(h.sz.ProbeK, func() { partition.Components(sep.p, sel) })
	h.setLayerValue("partition.components_us", sec*1e6)

	opts := provision.Options{FailureScenarios: 8}
	opts.Workspace = provision.NewWorkspace(sep.p, opts)
	sec, _ = probe(h.sz.ProbeK, func() {
		if ok, _ := provision.Check(sep.p, nil, sep.tm, provision.Constraint2, opts); !ok {
			h.fail("offered synth set infeasible")
		}
	})
	h.setLayerValue("provision.check_ms.synth", sec*1e3)

	fc := provision.NewFeasibilityCache()
	fc.Check(sep.p, nil, sep.tm, provision.Constraint2, opts, 0)
	sec, _ = probe(h.sz.ProbeK*20, func() { fc.Check(sep.p, nil, sep.tm, provision.Constraint2, opts, 0) })
	h.setLayerValue("provision.cache_hit_us", sec*1e6)

	// One shaving pass from the full offered set, priced as the bids are.
	pricing := seededPricing(h.seed)
	price := func(link int) float64 { return pricing.Price(sep.p, sep.p.Links[link]) }
	h.setLayerValue("provision.shave_ms", 1e3*h.call("provision.Shave", func() {
		sh, ok := provision.NewShaver(sep.p, nil, sep.tm, provision.Constraint2, provision.Options{FailureScenarios: 8})
		if !h.ok(ok, "full synth set infeasible") {
			return
		}
		sh.Shave(price, 1)
		sh.Close()
	}))
	return nil
}
