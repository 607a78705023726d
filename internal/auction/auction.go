package auction

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/public-option/poc/internal/fnv64"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Instance is one auction: a POC network, the BPs' bids, the external
// ISPs' virtual links, the traffic matrix to provision for, and the
// acceptability constraint.
type Instance struct {
	Network *topo.POCNetwork
	Bids    []Bid
	Virtual []VirtualLink
	TM      *traffic.Matrix
	// Constraint selects the acceptability family A(OL): every
	// candidate link set must satisfy it for the TM.
	Constraint provision.Constraint
	// RouteOpts tunes the feasibility router.
	RouteOpts provision.Options
	// MaxChecks selects the winner-determination variant:
	//
	//	 0 (default): constructive seed + idle-drop + shave to
	//	    incremental 1-minimality (see provision.Shaver);
	//	>0: additionally run price-ordered batch refinement with this
	//	    many feasibility checks before the shave;
	//	<0: constructive seed + idle-drop only (ablation baseline).
	//
	// Every variant is deterministic, which is what lets the POC
	// publish the algorithm ("an open algorithm so that it cannot be
	// accused of favoritism").
	MaxChecks int
	// Workers bounds how many counterfactual winner determinations run
	// concurrently (the per-BP runs are mutually independent), and is
	// forwarded to RouteOpts.Workers for Constraint2's failure-scenario
	// sweep when that is unset. 0 means runtime.GOMAXPROCS(0); 1 runs
	// everything on the caller. Parallelism only reorders work — every
	// outcome (Selected, TotalCost, Payments, Checks, the error of a
	// failed auction) is bit-identical for any value, preserving the
	// published-algorithm property.
	Workers int
	// NoCache disables the per-run feasibility memo (the serial seed
	// behaviour, useful for ablation). The memo never changes outcomes
	// — Check is deterministic, so a hit replays exactly what a fresh
	// check would compute — it only skips redundant routing work.
	NoCache bool
	// Cache, when non-nil, is an external feasibility memo shared
	// across runs — the fleet runner threads one process-wide cache
	// through every cell so instances over the same network, matrix
	// and bids replay each other's checks. Entries are keyed by a
	// fingerprint of this instance's price metric (plus the warm set
	// for counterfactuals), so instances with different bids never
	// collide. A shared cache requires the auction-built metric: when
	// RouteOpts.LinkCost is caller-supplied the external cache is
	// ignored (its identity cannot be fingerprinted) and a private
	// per-run memo is used instead. With an external cache the
	// scheduling-dependent tallies — Result.CacheHits/CacheMisses and
	// the auction.memo.* counters — are suppressed: which run inserts
	// an entry is cross-cell scheduling luck, and the obs export must
	// stay byte-identical for any worker interleaving.
	Cache *provision.FeasibilityCache
	// Decompose enables regional decomposition inside the cached
	// feasibility checks: probes whose enabled subgraph splits into
	// components with only intra-component demand are evaluated per
	// region and stitched exactly (FeasibilityCache.Probe). Answers
	// are identical to the global check on every instance — connected
	// or cross-demand probes simply compute cold — so the flag is pure
	// speed on border-separable continental instances. It requires a
	// cache (ignored under NoCache).
	Decompose bool
	// Workspace, when non-nil, is an external arena pool for the main
	// (raw-metric) winner determination, built by NewRawWorkspace on an
	// instance with the same Network, Bids, Virtual and RouteOpts.
	// Counterfactual runs always build their own (their warm-biased
	// metric differs per selection). Sharing never changes outcomes:
	// arenas are equivalent after apply, whichever run returned them.
	Workspace *provision.Workspace
	// Obs, when non-nil, receives the auction's metrics and trace
	// spans: run/counterfactual spans, check and memo counters, cost
	// gauges, and per-BP payments. It is forwarded to
	// RouteOpts.Obs (when that is unset) so feasibility checks record
	// too. All recording happens in Run's serial sections or through
	// commutative registry operations, so the export stays
	// byte-identical across Workers settings.
	Obs *obs.Registry
}

// warmBias scales the routing metric of links already in SL during the
// counterfactual winner determinations, so SL_-a reuses the main
// solution's structure. Smaller values track SL more aggressively: too
// small overestimates the Clarke pivots (the counterfactual ignores
// cheap alternatives outside SL), too large re-introduces heuristic
// noise (negative pivots).
const warmBias = 0.75

// Result reports the auction outcome.
type Result struct {
	// Selected is SL: the chosen link set (logical link IDs).
	Selected map[int]bool
	// TotalCost is C(SL): declared BP costs plus virtual-link
	// contract prices for the selected set.
	TotalCost float64
	// BPCost[a] is C_a(SL_a), BP a's declared cost for its selected
	// links.
	BPCost []float64
	// Payments[a] is the Clarke-pivot payment P_a.
	Payments []float64
	// Alternative[a] is C(SL_-a), the cheapest acceptable cost when
	// BP a withdraws. For BPs with no selected links it equals
	// TotalCost (withdrawing them changes nothing).
	Alternative []float64
	// VirtualCost is the contract cost of selected virtual links.
	VirtualCost float64
	// Checks counts feasibility checks spent across all winner
	// determinations (SL and every SL_-a). Cached checks still count:
	// the check budget (MaxChecks) must not depend on cache luck.
	Checks int
	// CacheHits/CacheMisses count feasibility-memo outcomes across the
	// run; hits are checks answered without routing.
	CacheHits   int
	CacheMisses int
}

// PoB returns the payment-over-bid margin for BP a:
// (P_a − C_a(SL_a)) / C_a(SL_a). This is the quantity Figure 2 plots.
// It returns 0 for BPs with no selected links.
func (r *Result) PoB(a int) float64 {
	if r.BPCost[a] <= 0 {
		return 0
	}
	return (r.Payments[a] - r.BPCost[a]) / r.BPCost[a]
}

// Surplus returns the total payment premium over declared costs,
// Σ_a (P_a − C_a) — what strategy-proofness costs the POC.
func (r *Result) Surplus() float64 {
	s := 0.0
	for a := range r.Payments {
		s += r.Payments[a] - r.BPCost[a]
	}
	return s
}

// priceMetric routes by declared lease price so that the routing —
// and therefore the seed of the winner determination — prefers the
// cheap links, which is what argmin C(L) wants.
func priceMetric(price map[int]float64) func(l topo.LogicalLink) float64 {
	return func(l topo.LogicalLink) float64 {
		if p, ok := price[l.ID]; ok && !math.IsInf(p, 1) {
			return p
		}
		return l.DistanceKm
	}
}

// Run executes the auction: winner determination for SL, then one
// counterfactual winner determination per participating BP to price
// the Clarke pivots. The counterfactuals are mutually independent and
// fan across Workers goroutines; every outcome — and, with Obs, every
// exported byte, on success or failure — is the same for any Workers.
func (in *Instance) Run() (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	// What Run derives goes into a local copy, never into in.RouteOpts:
	// the next Run on this instance — or on a copy with other bids — must
	// derive its own.
	opts := in.RouteOpts
	var sharedPrice map[int]float64
	if opts.LinkCost == nil {
		sharedPrice = in.priceOfLink()
		opts.LinkCost = priceMetric(sharedPrice)
	}
	workers := in.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers == 0 {
		opts.Workers = workers
	}
	if opts.Obs == nil {
		opts.Obs = in.Obs
	}
	// cc.external marks a cache shared beyond this run: obs recording
	// through it is suppressed (insert wins are cross-run scheduling
	// luck) and entries are namespaced by the instance's price-metric
	// fingerprint. A caller-supplied LinkCost cannot be fingerprinted,
	// so an external cache is only honored for the auction-built metric.
	var cc cacheCtx
	if !in.NoCache {
		if in.Cache != nil && sharedPrice != nil {
			cc = cacheCtx{fc: in.Cache, base: priceFingerprint(sharedPrice), external: true}
		} else {
			cc = cacheCtx{fc: provision.NewFeasibilityCache()}
		}
	}
	run := in.Obs.StartSpan("auction.run")
	defer run.End()
	wd := in.Obs.StartSpan("auction.winner_determination")
	sel, err := in.selectLinks(-1, nil, opts, cc)
	wd.End()
	if err != nil {
		return nil, fmt.Errorf("auction: winner determination: %w", err)
	}
	res := &Result{
		Selected:    sel.set.ToMap(),
		TotalCost:   sel.cost,
		BPCost:      make([]float64, len(in.Bids)),
		Payments:    make([]float64, len(in.Bids)),
		Alternative: make([]float64, len(in.Bids)),
		Checks:      sel.checks,
	}
	perBP := in.linksByBP(sel.set)
	var need []int
	for a, bid := range in.Bids {
		res.BPCost[a] = bid.Cost(perBP[a])
		if len(perBP[a]) == 0 {
			// Exact shortcut: withdrawing a BP with no selected links
			// leaves SL optimal, so C(SL_-a) = C(SL) and P_a = 0.
			res.Alternative[a] = sel.cost
			continue
		}
		need = append(need, a)
	}
	// Counterfactual winner determinations, warm-started from SL: the
	// routing metric prefers links already in SL, so SL_-a reuses the
	// main solution's structure and deviates only where BP a's links
	// are missing. This keeps C(SL_-a) comparable to C(SL) — under
	// exact optimization the pivot C(SL_-a) − C(SL) is non-negative,
	// and the warm start makes the heuristic respect that in all but
	// pathological cases.
	//
	// One loop, the shape of provision's Constraint-2 scenario sweep: an
	// atomic cursor over need, workers−1 goroutines plus the caller. The
	// runs share no mutable state: each worker owns its Options value
	// (and, when the metric was auction-built, its own LinkCost over a
	// private copy of the price map), and results land in per-index
	// slots. Aggregation below walks the slots in BP order, so Checks and
	// error selection are the same for any Workers. A failing run does
	// not stop the others: which checks the runs record in Obs would
	// otherwise depend on how far each got before the failure — on
	// Workers, and through Workers: 0 on the machine's core count.
	alts := make([]selection, len(in.Bids))
	errs := make([]error, len(in.Bids))
	cf := in.Obs.StartSpan("auction.counterfactuals")
	var next atomic.Int64
	sweep := func() {
		opts := opts
		if sharedPrice != nil {
			price := make(map[int]float64, len(sharedPrice))
			for id, p := range sharedPrice {
				price[id] = p
			}
			opts.LinkCost = priceMetric(price)
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= len(need) {
				return
			}
			a := need[i]
			alts[a], errs[a] = in.selectLinks(a, sel.set, opts, cc)
		}
	}
	var wg sync.WaitGroup
	for w := min(workers, len(need)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep()
		}()
	}
	sweep()
	wg.Wait()
	cf.End()
	for _, a := range need {
		if errs[a] != nil {
			return nil, fmt.Errorf("auction: A(OL−L_%d) empty: %w", a, errs[a])
		}
		alt := alts[a]
		res.Checks += alt.checks
		res.Alternative[a] = alt.cost
		// Clarke pivot. The heuristic winner determination can in
		// principle find alt.cost below sel.cost (it solves a smaller
		// instance); clamp at the theoretical lower bound P_a >= C_a.
		pay := res.BPCost[a] + (alt.cost - sel.cost)
		if pay < res.BPCost[a] {
			pay = res.BPCost[a]
		}
		res.Payments[a] = pay
	}
	for _, v := range in.Virtual {
		if sel.set.Contains(v.LinkID) {
			res.VirtualCost += v.ContractPrice
		}
	}
	if cc.fc != nil && !cc.external {
		res.CacheHits = int(cc.fc.Hits())
		res.CacheMisses = int(cc.fc.Misses())
	}
	in.record(res, need, cc)
	return res, nil
}

// paymentBuckets is the fixed layout for the per-BP payment histogram.
var paymentBuckets = []float64{1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// record publishes the auction outcome. It runs after the parallel
// fan-in, so ordered operations (gauges, per-BP payments) are safe;
// the memo counters use fc.Len() — the number of distinct link sets
// checked — rather than the scheduling-dependent hit/miss tallies, so
// the export is identical for any Workers value.
func (in *Instance) record(res *Result, need []int, cc cacheCtx) {
	if in.Obs == nil {
		return
	}
	in.Obs.Add("auction.runs", 1)
	in.Obs.Add("auction.counterfactuals", int64(len(need)))
	in.Obs.Add("auction.checks", int64(res.Checks))
	in.Obs.Set("auction.total_cost", res.TotalCost)
	in.Obs.Set("auction.virtual_cost", res.VirtualCost)
	in.Obs.Set("auction.surplus", res.Surplus())
	in.Obs.Set("auction.selected_links", float64(len(res.Selected)))
	for _, a := range need {
		in.Obs.KeyedSet("auction.payment_by_bp", a, res.Payments[a])
		in.Obs.Observe("auction.payments", paymentBuckets, res.Payments[a])
	}
	// An external cache's entry count reflects every run that shares
	// it, in completion order — scheduling-dependent — so the memo
	// counters are private-cache only.
	if cc.fc != nil && !cc.external {
		entries := int64(cc.fc.Len())
		in.Obs.Add("auction.memo.lookups", int64(res.Checks))
		in.Obs.Add("auction.memo.entries", entries)
		in.Obs.Add("auction.memo.replayed", int64(res.Checks)-entries)
	}
}

func (in *Instance) validate() error {
	if in.Network == nil {
		return fmt.Errorf("auction: nil network")
	}
	if in.TM == nil {
		return fmt.Errorf("auction: nil traffic matrix")
	}
	if in.TM.Size() != len(in.Network.Routers) {
		return fmt.Errorf("auction: traffic matrix size %d != %d routers",
			in.TM.Size(), len(in.Network.Routers))
	}
	if in.Constraint < provision.Constraint1 || in.Constraint > provision.Constraint3 {
		return fmt.Errorf("auction: invalid constraint %d", int(in.Constraint))
	}
	seen := map[int]bool{}
	for _, b := range in.Bids {
		if err := b.Validate(in.Network); err != nil {
			return err
		}
		for _, id := range b.Links {
			if seen[id] {
				return fmt.Errorf("auction: link %d offered twice", id)
			}
			seen[id] = true
		}
	}
	for _, v := range in.Virtual {
		if v.LinkID < 0 || v.LinkID >= len(in.Network.Links) {
			return fmt.Errorf("auction: virtual link %d out of range", v.LinkID)
		}
		if seen[v.LinkID] {
			return fmt.Errorf("auction: link %d offered twice", v.LinkID)
		}
		seen[v.LinkID] = true
		if v.ContractPrice < 0 {
			return fmt.Errorf("auction: negative contract price for link %d", v.LinkID)
		}
	}
	return nil
}

// linksByBP partitions a selected set into per-BP sorted link lists
// following the bids (not link ownership, so withheld links never
// count).
func (in *Instance) linksByBP(set *linkset.Set) [][]int {
	out := make([][]int, len(in.Bids))
	for a, b := range in.Bids {
		for _, id := range b.Links {
			if set.Contains(id) {
				out[a] = append(out[a], id)
			}
		}
		sort.Ints(out[a])
	}
	return out
}

// costOf evaluates C(L) for a candidate set: Σ_a C_a(L ∩ L_a) plus
// virtual contract prices.
func (in *Instance) costOf(set *linkset.Set) float64 {
	total := 0.0
	for a, links := range in.linksByBP(set) {
		c := in.Bids[a].Cost(links)
		if math.IsInf(c, 1) {
			return math.Inf(1)
		}
		total += c
	}
	for _, v := range in.Virtual {
		if set.Contains(v.LinkID) {
			total += v.ContractPrice
		}
	}
	return total
}

// selection is the outcome of one winner determination.
type selection struct {
	set    *linkset.Set
	cost   float64
	checks int
}

// cacheCtx carries one Run's feasibility-memo context into every
// winner determination: the cache itself, the instance's price-metric
// fingerprint (zero for a private per-run cache), and whether the
// cache outlives the run (external ⇒ no obs recording through it).
type cacheCtx struct {
	fc       *provision.FeasibilityCache
	base     uint64
	external bool
}

// priceFingerprint hashes a price metric by value, in ascending link
// ID: two instances with equal bids produce equal fingerprints (and so
// share cache entries), while a reauction's reduced bids — different
// marginal prices — produce a different one.
func priceFingerprint(price map[int]float64) uint64 {
	ids := make([]int, 0, len(price))
	for id := range price {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := uint64(fnv64.Offset)
	for _, id := range ids {
		h = fnv64.Mix(h, uint64(id))
		h = fnv64.Mix(h, math.Float64bits(price[id]))
	}
	return h
}

// NewRawWorkspace builds a provisioning workspace frozen to this
// instance's raw price metric — the metric Run uses for the main
// winner determination when RouteOpts.LinkCost is nil. A caller that
// runs many auctions over the same Network, Bids, Virtual and
// RouteOpts (the fleet runner's cells) builds one and sets it as
// Instance.Workspace on each, sharing the arena free-list across runs.
func (in *Instance) NewRawWorkspace() *provision.Workspace {
	opts := in.RouteOpts
	if opts.LinkCost == nil {
		opts.LinkCost = priceMetric(in.priceOfLink())
	}
	return provision.NewWorkspace(in.Network, opts)
}

// offered returns the offered link set OL, optionally excluding one
// BP's links (excludeBP >= 0).
func (in *Instance) offered(excludeBP int) *linkset.Set {
	ol := linkset.New(len(in.Network.Links))
	for a, b := range in.Bids {
		if a == excludeBP {
			continue
		}
		for _, id := range b.Links {
			ol.Add(id)
		}
	}
	for _, v := range in.Virtual {
		ol.Add(v.LinkID)
	}
	return ol
}

// priceOfLink returns the per-link price used as the routing metric
// and the removal order: each BP link's *marginal* price within the
// BP's full offer (C_a(L_a) − C_a(L_a∖{id})), which sees bundle
// discounts that a naive singleton price would miss; virtual links
// use their contract price. When a bid prices its full set at +Inf
// (pathological), the singleton price is the fallback.
func (in *Instance) priceOfLink() map[int]float64 {
	price := map[int]float64{}
	scratch := make([]int, 0, 64)
	for _, b := range in.Bids {
		full := b.Cost(b.Links)
		for i, id := range b.Links {
			if math.IsInf(full, 1) {
				price[id] = b.Cost([]int{id})
				continue
			}
			scratch = scratch[:0]
			scratch = append(scratch, b.Links[:i]...)
			scratch = append(scratch, b.Links[i+1:]...)
			p := full - b.Cost(scratch)
			if p < 0 {
				p = 0
			}
			price[id] = p
		}
	}
	for _, v := range in.Virtual {
		price[v.LinkID] = v.ContractPrice
	}
	return price
}

// selectLinks is the deterministic winner-determination heuristic:
//
//  1. Start from all offered links (minus the excluded BP) and fail
//     if even that is unacceptable.
//  2. Drop-unused pass: route the TM by lease price, then drop every
//     link the routing (and, for resilience constraints, the
//     degraded routings) leaves idle, bisecting the drop batch on
//     failure.
//  3. Optional batch refinement (MaxChecks > 0): try to drop the
//     most expensive remaining links in batches within the budget.
//  4. Shave (unless MaxChecks < 0): make the set incrementally
//     1-minimal, most expensive link first, via cheap repair-based
//     drop tests (provision.Shaver).
//
// The shave is what makes VCG pivots consistent: the main run and
// every counterfactual run converge to comparably tight sets, so
// C(SL_-a) − C(SL) measures the BP's contribution rather than
// heuristic noise. The whole pipeline is deterministic, so the POC
// can publish it and every BP can reproduce the outcome.
//
// opts is passed explicitly (not read from in.RouteOpts) so that
// concurrent counterfactual runs each own their Options value. cc.fc,
// when non-nil, memoizes feasibility checks. Within one Run only two
// routing metrics exist — the raw price metric (main run) and the
// warm-biased one (every counterfactual warms towards the same SL) —
// so entries are tagged with which of the two produced them: the
// excluded BP is already captured by the include set in the key, and
// sharing the warm tag lets counterfactuals reuse each other's checks.
// The tags mix in cc.base (the instance's price-metric fingerprint,
// zero for a private cache) and, for the warm metric, the warm set and
// bias, so runs sharing an external cache never cross metrics.
func (in *Instance) selectLinks(excludeBP int, warm *linkset.Set, opts provision.Options, cc cacheCtx) (selection, error) {
	cur := in.offered(excludeBP)
	metric := fnv64.Mix(fnv64.Mix(fnv64.Offset, cc.base), 1) // raw price metric
	if warm != nil {
		// Scale down the routing metric of links in the warm set so
		// the constructive seed follows the main solution's structure.
		// The warm-biased metric is identical across counterfactuals: a
		// pure function of (price metric, warm set, bias). The bias stays
		// in the tag so keys in persisted caches keep their bytes.
		metric = fnv64.Mix(fnv64.Mix(fnv64.Offset, cc.base), 2)
		for _, w := range warm.Words() {
			metric = fnv64.Mix(metric, w)
		}
		metric = fnv64.Mix(metric, math.Float64bits(warmBias))
		base := opts.LinkCost
		opts.LinkCost = func(l topo.LogicalLink) float64 {
			c := base(l)
			if warm.Contains(l.ID) {
				c *= warmBias
			}
			return c
		}
	}
	// One workspace per winner determination: its arenas freeze this
	// determination's routing metric (raw or warm-biased), and every
	// check below — including the Constraint-2 scenario sweeps and the
	// shave — draws from the same pool. Counterfactuals run their own
	// selectLinks, so parallel runs never share a workspace — unless
	// the caller provided a shared raw-metric pool, which the main
	// determination draws from (arenas are equivalent after apply).
	if warm == nil && in.Workspace != nil {
		opts.Workspace = in.Workspace
	} else {
		opts.Workspace = provision.NewWorkspace(in.Network, opts)
	}
	checks := 0
	fc := cc.fc
	// probe is the one feasibility query of the determination. Every
	// query counts against checks whether or not the memo answers it:
	// the MaxChecks budget must not depend on cache luck, so cached and
	// uncached runs take identical decisions. needCore additionally asks
	// for the union of links the constraint's routings use.
	probe := func(set *linkset.Set, o provision.Options, needCore bool) (bool, *linkset.Set) {
		checks++
		if fc == nil {
			if needCore {
				return provision.CheckCore(in.Network, set, in.TM, in.Constraint, o)
			}
			ok, _ := provision.Check(in.Network, set, in.TM, in.Constraint, o)
			return ok, nil
		}
		if cc.external {
			// Which sharing run wins an entry's insert — and with it the
			// once-per-entry check metrics — is cross-run scheduling luck;
			// record nothing through a shared cache.
			o.Obs = nil
		}
		sum, core := fc.Probe(in.Network, set, in.TM, in.Constraint, o, metric, needCore, in.Decompose)
		return sum.Feasible, core
	}
	feasible := func(set *linkset.Set) bool {
		ok, _ := probe(set, opts, false)
		return ok
	}
	// The acceptability check and the idle-link scan of pass 1 route the
	// exact same instance; fuse them (needCore) so the full offer set —
	// the most expensive instance the pipeline ever routes — is routed
	// once instead of twice.
	ok, core := probe(cur, opts, true)
	if !ok {
		// A tight offer set (e.g. a prior auction's minimal selection
		// re-offered in the collusion experiment) can wedge the greedy
		// packing even though a feasible packing exists; retry with
		// more path splits before declaring the set unacceptable.
		boosted := opts
		boosted.MaxPaths = boosted.MaxPaths * 4
		if boosted.MaxPaths <= 0 {
			boosted.MaxPaths = 48
		}
		if ok, core = probe(cur, boosted, true); !ok {
			return selection{}, fmt.Errorf("offered set is not acceptable under %v", in.Constraint)
		}
		opts = boosted
	}

	// Pass 1: drop every link idle under the constraint's scenarios.
	// Iteration is ascending-ID, so idle is already sorted.
	var idle []int
	cur.Iterate(func(id int) {
		if !core.Contains(id) {
			idle = append(idle, id)
		}
	})
	in.dropBatch(cur, idle, feasible, math.MaxInt, &checks)

	price := in.priceOfLink()

	// Pass 2 (optional): price-ordered batch refinement within the
	// check budget.
	if in.MaxChecks > 0 {
		budget := in.MaxChecks
		for checks < budget {
			// Most expensive first.
			cand := cur.AppendIDs(make([]int, 0, cur.Len()))
			sort.Slice(cand, func(i, j int) bool {
				if price[cand[i]] != price[cand[j]] {
					return price[cand[i]] > price[cand[j]]
				}
				return cand[i] < cand[j]
			})
			batch := len(cand) / 8
			if batch < 1 {
				batch = 1
			}
			dropped := in.dropBatch(cur, cand[:min(batch*2, len(cand))], feasible, budget-checks, &checks)
			if dropped == 0 {
				break
			}
		}
	}

	// Pass 3: shave to incremental 1-minimality. The shave routes
	// internally without going through check(), so at continental
	// scale it dominates a cache-warm determination — memoize its
	// result in the cache under the same key material (the price
	// metric fingerprint also fixes the shave's price order; see
	// FeasibilityCache.Shaved). The Shaver records no obs, so a memo
	// hit skipping it never perturbs metrics exports.
	if in.MaxChecks >= 0 {
		runShave := func() *linkset.Set {
			if sh, ok := provision.NewShaver(in.Network, cur, in.TM, in.Constraint, opts); ok {
				sh.Shave(func(link int) float64 { return price[link] }, 0)
				defer sh.Close()
				return sh.Include()
			}
			return cur
		}
		if fc != nil {
			cur = fc.Shaved(in.Network, cur, in.TM, in.Constraint, opts, metric, runShave)
		} else {
			cur = runShave()
		}
	}

	return selection{set: cur, cost: in.costOf(cur), checks: checks}, nil
}

// dropBatch tries to remove the candidate links from set, bisecting on
// infeasibility, within a check budget: it stops descending once
// *spent (the caller's check counter, which feasible advances) has
// grown by budget. It mutates set in place and returns how many links
// were removed.
func (in *Instance) dropBatch(set *linkset.Set, cand []int, feasible func(*linkset.Set) bool, budget int, spent *int) int {
	if len(cand) == 0 || budget <= 0 {
		return 0
	}
	before := *spent
	trial := set.Clone()
	for _, id := range cand {
		trial.Remove(id)
	}
	if feasible(trial) {
		for _, id := range cand {
			set.Remove(id)
		}
		return len(cand)
	}
	if len(cand) == 1 {
		return 0
	}
	mid := len(cand) / 2
	remaining := budget - (*spent - before)
	n := in.dropBatch(set, cand[:mid], feasible, remaining, spent)
	remaining = budget - (*spent - before)
	return n + in.dropBatch(set, cand[mid:], feasible, remaining, spent)
}
