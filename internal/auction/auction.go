package auction

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// RouteOpts tunes the feasibility router. Its LinkCost must be
	// nil: Run routes by the bids' price table (priceOfLink).
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
	// concurrently (the per-BP runs are mutually independent). 0 means
	// runtime.GOMAXPROCS(0); 1 runs everything on the caller.
	// Parallelism only reorders work — every outcome (Selected,
	// TotalCost, Payments, Checks, the error of a failed auction) is
	// bit-identical for any value, preserving the published-algorithm
	// property.
	Workers int
	// NoCache disables the per-run feasibility memo (the serial seed
	// behaviour, useful for ablation). The memo never changes outcomes
	// — Check is deterministic, so a hit replays exactly what a fresh
	// check would compute — it only skips redundant routing work.
	NoCache bool
	// Cache, when non-nil, is an external feasibility memo shared
	// across runs — the fleet runner threads one process-wide cache
	// through every cell so instances over the same network, matrix
	// and bids replay each other's checks — and whole winner
	// determinations (see determine). Entries are keyed by a
	// fingerprint of this instance's price metric (plus the warm set
	// for counterfactuals), so instances with different bids never
	// collide. With an external cache the scheduling-dependent
	// tallies — Result.CacheHits/CacheMisses and the auction.memo.*
	// counters — are suppressed: which run inserts an entry is
	// cross-cell scheduling luck, and the obs export must stay
	// byte-identical for any worker interleaving.
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

// priceTable is one Run's link prices (see priceOfLink). It is a pure
// function of the bids, built once per Run and read-only after, so
// every winner determination, every counterfactual worker and every
// metric closure reads the same table.
type priceTable struct {
	// of is indexed by link ID; +Inf means unpriced (no bid or contract
	// offers the link) or priced at +Inf.
	of []float64
	// byPrice lists the offered links by price descending, then ID
	// ascending — a total order, so filtering it to a subset yields
	// exactly that subset sorted the same way.
	byPrice []int
}

// metric routes by declared lease price so that the routing — and
// therefore the seed of the winner determination — prefers the cheap
// links, which is what argmin C(L) wants. An unpriced or +Inf-priced
// link routes by its distance.
func (pt *priceTable) metric(l topo.LogicalLink) float64 {
	if p := pt.of[l.ID]; !math.IsInf(p, 1) {
		return p
	}
	return l.DistanceKm
}

// Run executes the auction: winner determination for SL, then one
// counterfactual winner determination per participating BP to price
// the Clarke pivots. The counterfactuals are mutually independent and
// fan across Workers goroutines; every outcome — and, with Obs, every
// exported byte, on success or failure — is the same for any Workers.
//
// Run derives its per-run state once and hands it to every winner
// determination: each bid's links in ID order, the price table
// (priceOfLink), the cache context, one workspace for the main
// determination and one that every counterfactual draws its arenas
// from.
func (in *Instance) Run() (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	// What Run derives goes into a local copy, never into in.RouteOpts:
	// the next Run on this instance — or on a copy with other bids — must
	// derive its own.
	opts := in.RouteOpts
	rc := &runCtx{links: sortedBidLinks(in.Bids)}
	rc.prices = in.priceOfLink(rc.links)
	opts.LinkCost = rc.prices.metric
	workers := in.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Obs == nil {
		opts.Obs = in.Obs
	}
	// cc.external marks a cache shared beyond this run: obs recording
	// through it is suppressed (insert wins are cross-run scheduling
	// luck) and entries are namespaced by the instance's price-metric
	// fingerprint.
	if !in.NoCache {
		if in.Cache != nil {
			rc.fc, rc.base, rc.external = in.Cache, priceFingerprint(rc.prices), true
		} else {
			rc.fc = provision.NewFeasibilityCache()
		}
	}
	run := in.Obs.StartSpan("auction.run")
	defer run.End()
	wd := in.Obs.StartSpan("auction.winner_determination")
	opts.Workspace = provision.NewWorkspace(in.Network, opts)
	sel, err := in.determine(-1, opts, rc.rawTag(), rc)
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
	perBP := linksByBP(rc.links, sel.set)
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
	// Every counterfactual routes by the same metric — a pure function of
	// (price metric, SL, bias) — so they all draw arenas, routings and the
	// demand shape from one workspace. Which run gets which arena is
	// scheduling order, and it never matters: arenas are equivalent after
	// apply (DESIGN §10.2).
	warm, base := sel.set, opts.LinkCost
	cfOpts := opts
	cfOpts.LinkCost = func(l topo.LogicalLink) float64 {
		c := base(l)
		if warm.Contains(l.ID) {
			c *= warmBias
		}
		return c
	}
	cfOpts.Workspace = provision.NewWorkspace(in.Network, cfOpts)
	cfTag := rc.warmTag(warm)

	// The auction's one fan-out: an atomic cursor over need, workers−1
	// goroutines plus the caller. The runs share only read-only state
	// (the price table, SL) and the workspace's locked free lists;
	// results land in per-index slots. Aggregation below walks the slots
	// in BP order, so Checks and error selection are the same for any
	// Workers. A failing run does not stop the others: which checks the
	// runs record in Obs would otherwise depend on how far each got
	// before the failure — on Workers, and through Workers: 0 on the
	// machine's core count.
	alts := make([]selection, len(in.Bids))
	errs := make([]error, len(in.Bids))
	cf := in.Obs.StartSpan("auction.counterfactuals")
	order := need
	if sweepOrder != nil {
		order = sweepOrder(slices.Clone(need))
	}
	var next atomic.Int64
	sweep := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(order) {
				return
			}
			a := order[i]
			alts[a], errs[a] = in.determine(a, cfOpts, cfTag, rc)
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
	if rc.fc != nil && !rc.external {
		res.CacheHits = int(rc.fc.Hits())
		res.CacheMisses = int(rc.fc.Misses())
	}
	in.record(res, need, rc)
	return res, nil
}

// sweepOrder, when non-nil, reorders the BPs the counterfactual sweep
// takes from its cursor, so a test can fix the order a worker's folds
// into shared state run in: a test hook, which must return a
// permutation of need.
var sweepOrder func(need []int) []int

// paymentBuckets is the fixed layout for the per-BP payment histogram.
var paymentBuckets = []float64{1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// record publishes the auction outcome. It runs after the parallel
// fan-in, so ordered operations (gauges, per-BP payments) are safe;
// the memo counters use fc.Len() — the number of distinct link sets
// checked — rather than the scheduling-dependent hit/miss tallies, so
// the export is identical for any Workers value.
func (in *Instance) record(res *Result, need []int, rc *runCtx) {
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
	if rc.fc != nil && !rc.external {
		entries := int64(rc.fc.Len())
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
	if in.RouteOpts.LinkCost != nil {
		return fmt.Errorf("auction: RouteOpts.LinkCost is set; Run routes by the bids' prices")
	}
	seen := linkset.New(len(in.Network.Links))
	for _, b := range in.Bids {
		if err := b.Validate(in.Network); err != nil {
			return err
		}
		for _, id := range b.Links {
			if seen.Contains(id) {
				return fmt.Errorf("auction: link %d offered twice", id)
			}
			seen.Add(id)
		}
	}
	for _, v := range in.Virtual {
		if v.LinkID < 0 || v.LinkID >= len(in.Network.Links) {
			return fmt.Errorf("auction: virtual link %d out of range", v.LinkID)
		}
		if seen.Contains(v.LinkID) {
			return fmt.Errorf("auction: link %d offered twice", v.LinkID)
		}
		seen.Add(v.LinkID)
		if v.ContractPrice < 0 {
			return fmt.Errorf("auction: negative contract price for link %d", v.LinkID)
		}
	}
	return nil
}

// sortedBidLinks returns a copy of each bid's links in ascending ID
// order. Every CostFn call of a Run reads these: a float cost summed in
// another order lands on other bits, so pricing the bid's own order
// would let a BP move the selection by reordering its list.
func sortedBidLinks(bids []Bid) [][]int {
	out := make([][]int, len(bids))
	for a, b := range bids {
		out[a] = slices.Clone(b.Links)
		slices.Sort(out[a])
	}
	return out
}

// linksByBP partitions a selected set into per-BP sorted link lists
// following the bids (not link ownership, so withheld links never
// count). links is sortedBidLinks of the bids.
func linksByBP(links [][]int, set *linkset.Set) [][]int {
	out := make([][]int, len(links))
	for a, l := range links {
		out[a] = bidLinks(nil, l, set)
	}
	return out
}

// bidLinks fills the empty slice dst with the links in set, in the
// order links lists them.
func bidLinks(dst, links []int, set *linkset.Set) []int {
	for _, id := range links {
		if set.Contains(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// costOf evaluates C(L) for a candidate set: Σ_a C_a(L ∩ L_a) plus
// virtual contract prices. Every bid is priced on one scratch slice
// holding what linksByBP would list for it.
func (in *Instance) costOf(set *linkset.Set, links [][]int) float64 {
	longest := 0
	for _, l := range links {
		longest = max(longest, len(l))
	}
	total, scratch := 0.0, make([]int, 0, longest)
	for a, b := range in.Bids {
		scratch = bidLinks(scratch[:0], links[a], set)
		c := b.Cost(scratch)
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

// runCtx is what one Run derives once and every winner determination
// reads: each bid's links in ID order, the price table, the feasibility
// memo, the instance's price-metric fingerprint (zero for a private
// per-run cache), and whether the cache outlives the run (external ⇒
// no obs recording through it).
type runCtx struct {
	links    [][]int
	prices   *priceTable
	fc       *provision.FeasibilityCache
	base     uint64
	external bool
}

// rawTag is the cache metric tag of the raw price metric (the main
// determination).
func (rc *runCtx) rawTag() uint64 {
	return fnv64.Mix(fnv64.Mix(fnv64.Offset, rc.base), 1)
}

// warmTag is the cache metric tag of the warm-biased metric, a pure
// function of (price metric, warm set, bias) and so the same for every
// counterfactual. The bias stays in the tag so keys in persisted
// caches keep their bytes.
func (rc *runCtx) warmTag(warm *linkset.Set) uint64 {
	tag := fnv64.Mix(fnv64.Mix(fnv64.Offset, rc.base), 2)
	for _, w := range warm.Words() {
		tag = fnv64.Mix(tag, w)
	}
	return fnv64.Mix(tag, math.Float64bits(warmBias))
}

// priceFingerprint hashes a price table by value, in ascending link ID
// over the priced links: two instances with equal bids produce equal
// fingerprints (and so share cache entries), while a reauction's
// reduced bids — different marginal prices — produce a different one.
func priceFingerprint(pt *priceTable) uint64 {
	ids := slices.Clone(pt.byPrice)
	slices.Sort(ids)
	h := uint64(fnv64.Offset)
	for _, id := range ids {
		h = fnv64.Mix(h, uint64(id))
		h = fnv64.Mix(h, math.Float64bits(pt.of[id]))
	}
	return h
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

// priceOfLink builds the price table: the per-link price used as the
// routing metric and the removal order. Each BP link's price is its
// *marginal* price within the BP's full offer (C_a(L_a) −
// C_a(L_a∖{id})), which sees bundle discounts that a naive singleton
// price would miss; virtual links use their contract price. When a bid
// prices its full set at +Inf (pathological), the singleton price is
// the fallback. It costs Σ_a(|L_a|+1) bid evaluations of O(|L_a|)
// each, so Run calls it once and shares the result. links is
// sortedBidLinks of the bids: a bid is priced on its links in ID
// order, whatever order it lists them in.
func (in *Instance) priceOfLink(links [][]int) *priceTable {
	offered := len(in.Virtual)
	for _, l := range links {
		offered += len(l)
	}
	pt := &priceTable{of: make([]float64, len(in.Network.Links)), byPrice: make([]int, 0, offered)}
	for i := range pt.of {
		pt.of[i] = math.Inf(1)
	}
	set := func(id int, p float64) {
		pt.of[id] = p
		pt.byPrice = append(pt.byPrice, id)
	}
	scratch := make([]int, 0, 64)
	for a, b := range in.Bids {
		l := links[a]
		full := b.Cost(l)
		for i, id := range l {
			if math.IsInf(full, 1) {
				set(id, b.Cost([]int{id}))
				continue
			}
			scratch = scratch[:0]
			scratch = append(scratch, l[:i]...)
			scratch = append(scratch, l[i+1:]...)
			p := full - b.Cost(scratch)
			if p < 0 {
				p = 0
			}
			set(id, p)
		}
	}
	for _, v := range in.Virtual {
		set(v.LinkID, v.ContractPrice)
	}
	sort.Slice(pt.byPrice, func(i, j int) bool {
		pi, pj := pt.of[pt.byPrice[i]], pt.of[pt.byPrice[j]]
		if pi != pj {
			return pi > pj
		}
		return pt.byPrice[i] < pt.byPrice[j]
	})
	return pt
}

// determine is one winner determination: SL when excludeBP < 0, else
// SL_-excludeBP. Through a cache shared beyond the run (rc.external) the
// whole determination is memoized (FeasibilityCache.Determined): its
// start set — the offered links minus the excluded BP's — under the
// metric tag and MaxChecks fixes its selection and check count, so a
// warm re-clear answers it with one lookup and prices the selection.
// The key pins the price metric, not the cost functions, so C(L) is
// always computed from the bids. A private per-run cache never sees a
// determination twice, so it stores none.
func (in *Instance) determine(excludeBP int, opts provision.Options, tag uint64, rc *runCtx) (selection, error) {
	start := in.offered(excludeBP)
	var (
		set    *linkset.Set
		checks int
		err    error
	)
	if rc.external {
		set, checks, err = rc.fc.Determined(in.Network, start, in.TM, in.Constraint, opts, tag, in.MaxChecks, func() (*linkset.Set, int, error) {
			return in.selectLinks(start, opts, tag, rc)
		})
	} else {
		set, checks, err = in.selectLinks(start, opts, tag, rc)
	}
	if err != nil {
		return selection{}, err
	}
	return selection{set: set, cost: in.costOf(set, rc.links), checks: checks}, nil
}

// selectLinks is the deterministic winner-determination heuristic. It
// returns the selection and the feasibility checks it spent.
//
//  1. Start from cur, all offered links (minus the excluded BP), and
//     fail if even that is unacceptable. selectLinks shrinks cur in
//     place.
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
// Everything a determination reads beyond its own start set comes
// from the caller, derived once per Run. opts carries the routing
// metric and the workspace whose arenas freeze it: the main run's raw
// price metric, or the warm-biased one every counterfactual shares
// (arenas are equivalent after apply, so sharing a pool never changes
// an answer). Every check below — each Constraint-2 scenario routing and
// the shave included — draws from that pool. tag names the metric to
// the feasibility memo rc.fc (nil = no memo); within one Run only the
// two metrics exist, so the excluded BP is captured by the include set
// in the key and counterfactuals reuse each other's checks. The tags
// mix in rc.base, so runs sharing an external cache never cross
// metrics. rc.prices gives pass 2's removal order and the shave's.
func (in *Instance) selectLinks(cur *linkset.Set, opts provision.Options, tag uint64, rc *runCtx) (*linkset.Set, int, error) {
	checks := 0
	fc := rc.fc
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
		if rc.external {
			// Which sharing run wins an entry's insert — and with it the
			// once-per-entry check metrics — is cross-run scheduling luck;
			// record nothing through a shared cache.
			o.Obs = nil
		}
		sum, core := fc.Probe(in.Network, set, in.TM, in.Constraint, o, tag, needCore, in.Decompose)
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
			return nil, 0, fmt.Errorf("offered set is not acceptable under %v", in.Constraint)
		}
		opts = boosted
	}

	// Pass 1: drop every link idle under the constraint's scenarios.
	// Iteration is ascending-ID, so idle is already sorted. Every
	// routing uses enabled links only, so core ⊆ cur and idle has
	// exactly cur.Len() − core.Len() links.
	idle := make([]int, 0, cur.Len()-core.Len())
	cur.Iterate(func(id int) {
		if !core.Contains(id) {
			idle = append(idle, id)
		}
	})
	// trial is the one scratch set the bisections below probe; nothing
	// a probe calls keeps its include set.
	trial := linkset.New(len(in.Network.Links))
	in.dropBatch(cur, trial, idle, feasible, math.MaxInt, &checks)

	// Pass 2 (optional): price-ordered batch refinement within the
	// check budget.
	if in.MaxChecks > 0 {
		budget := in.MaxChecks
		// Each round probes the 2·batch most expensive links of cur.
		// cur only shrinks, so the first round's list is the longest.
		probed := func() int { return min(2*max(cur.Len()/8, 1), cur.Len()) }
		cand := make([]int, 0, probed())
		for checks < budget {
			// Most expensive first: cur ⊆ OL, so filtering the price
			// order to cur is cur sorted by it.
			n := probed()
			cand = cand[:0]
			for _, id := range rc.prices.byPrice {
				if len(cand) == n {
					break
				}
				if cur.Contains(id) {
					cand = append(cand, id)
				}
			}
			if in.dropBatch(cur, trial, cand, feasible, budget-checks, &checks) == 0 {
				break
			}
		}
	}

	// Pass 3: shave to incremental 1-minimality. The shave routes
	// internally without going through probe, so no check memo answers
	// it; a warm re-clear skips it with the whole determination
	// (FeasibilityCache.Determined). The Shaver records no obs.
	if in.MaxChecks >= 0 {
		if sh, ok := provision.NewShaver(in.Network, cur, in.TM, in.Constraint, opts); ok {
			sh.Shave(func(link int) float64 { return rc.prices.of[link] }, 0)
			cur = sh.Include()
			sh.Close()
		}
	}

	return cur, checks, nil
}

// dropBatch tries to remove the candidate links from set, bisecting on
// infeasibility, within a check budget: it stops descending once
// *spent (the caller's check counter, which feasible advances) has
// grown by budget. It mutates set in place and returns how many links
// were removed. Each bisection node copies set into trial, the caller's
// scratch, and probes that: feasible must not keep the set it is given.
func (in *Instance) dropBatch(set, trial *linkset.Set, cand []int, feasible func(*linkset.Set) bool, budget int, spent *int) int {
	if len(cand) == 0 || budget <= 0 {
		return 0
	}
	before := *spent
	trial.CopyFrom(set)
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
	n := in.dropBatch(set, trial, cand[:mid], feasible, remaining, spent)
	remaining = budget - (*spent - before)
	return n + in.dropBatch(set, trial, cand[mid:], feasible, remaining, spent)
}
