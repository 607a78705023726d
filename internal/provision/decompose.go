package provision

import (
	"encoding/binary"
	"slices"
	"sync"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/partition"
	"github.com/public-option/poc/internal/topo"
)

// Regional decomposition (DESIGN.md §15): when the enabled subgraph of
// a probe splits into connected components and every demand pair is
// intra-component, the global check factors exactly into independent
// per-component checks — Dijkstra never relaxes across a gap, residual
// capacity never aggregates across components, and the demand order of
// each component is the order-preserved restriction of the global one.
// A probe that asks for decomposition (FeasibilityCache.Probe) detects
// that certificate on a miss, evaluates each component as an ordinary
// memoized check over the same network with the demand shape restricted
// to the component (restricted: restrict, memoized on the parent shape),
// and stitches the results back together.
//
// Exactness conditions, and the fallbacks that guard them:
//
//   - Cross-component demand, or fewer than two components carrying
//     demand: no decomposition — the probe computes cold.
//   - The per-Route 512-move ejection budget is shared globally but
//     private per component run. If the components' move maxima sum to
//     ≥ 512 the global run could have exhausted it where the regional
//     runs did not, so the probe recomputes cold. (Below that sum no
//     cold routing can hit the budget either: a cold routing's moves
//     are the sum of its per-component restrictions.)
//   - Unplaced Gbps accumulates in global demand order; summing two or
//     more components' nonzero totals could disagree with the cold
//     float accumulation in the last bit, so that case recomputes
//     cold. (With at most one nonzero component the sum is exact.)
//   - Constraint2/3 declare a set infeasible when any demand pair is
//     unreachable — even one whose demand is under the 1e-9 placement
//     tolerance, which a per-component Constraint1 switch would miss.
//     Sub-tolerance demands therefore disable decomposition for those
//     constraints.
//
// Constraint2's failure scenarios are the global top-FailureScenarios
// heaviest pairs. Component k receives exactly its share: with m_k of
// those pairs inside it, checking the component at FailureScenarios =
// m_k selects the same pairs (the heaviest-pairs comparator is a total
// order, so a prefix restricted to a component is the component's own
// prefix). A component with m_k = 0 runs Constraint1 — base routing
// only — which is its exact share of the global check.
//
// The merged summary equals the cold one field-for-field except Moves,
// which becomes the components' sum: a sound upper bound on the cold
// maximum (it is the budget-gating quantity above) but not generally
// equal to it. Moves is decomposition-internal accounting that the
// metrics layer never exports, so nothing downstream can observe the
// difference.

// Why a probe miss that asked to decompose was computed cold; the
// indices of FeasibilityCache.fallbacks, reported by CacheStats.
const (
	fallbackNoPlan = iota
	fallbackSubTolerance
	fallbackMoves
	fallbackUnplaced
	numFallbacks
)

// decompComp is one component's sub-problem: its enabled links, its
// share of the demand, and its Constraint2 scenario share.
type decompComp struct {
	include *linkset.Set
	sh      *shape
	fs      int
}

// decomposePlan builds the per-component sub-problems for a probe, or
// returns nil and the fallback reason when the separability
// certificate does not hold. The labelling and the components' include
// sets are rt's decomposition scratch (router.labels, router.parts),
// valid while the caller holds rt. When sh has restricted this
// labelling before, the plan allocates the plan slice alone.
func decomposePlan(rt *router, include *linkset.Set, sh *shape, c Constraint, opts Options) ([]decompComp, int) {
	p := rt.p
	if n := 2 * len(p.Routers); len(rt.labels) < n {
		rt.labels = make([]int, n)
	}
	pt := partition.Label(p, include, rt.labels)
	if pt.NumComp < 2 {
		return nil, fallbackNoPlan
	}
	for _, d := range sh.pairs {
		if pt.Comp[d.src] != pt.Comp[d.dst] {
			return nil, fallbackNoPlan
		}
		// A sub-tolerance demand can be unreachable while the base
		// routing stays feasible; only the global unreachable-pair
		// check catches that.
		if c != Constraint1 && d.gbps <= 1e-9 {
			return nil, fallbackSubTolerance
		}
	}
	subs := sh.restricted(pt.Comp, pt.NumComp)
	withDemand := 0
	for _, sub := range subs {
		if sub != nil {
			withDemand++
		}
	}
	if withDemand < 2 {
		return nil, fallbackNoPlan
	}
	// Indexed by component label until the last line drops the idle ones.
	comps := make([]decompComp, pt.NumComp)
	sets := rt.parts.Take(withDemand, len(p.Links))
	for k, sub := range subs {
		if sub != nil {
			comps[k] = decompComp{include: &sets[0], sh: sub}
			sets = sets[1:]
		}
	}
	for _, l := range p.Links {
		// Enabled links never cross components.
		if s := comps[pt.Comp[l.A]].include; s != nil && (include == nil || include.Contains(l.ID)) {
			s.Add(l.ID)
		}
	}
	if c == Constraint2 {
		for _, q := range sh.heaviest(opts.FailureScenarios) {
			comps[pt.Comp[q.src]].fs++
		}
	}
	return slices.DeleteFunc(comps, func(c decompComp) bool { return c.sh == nil }), 0
}

// restrictMemoCap bounds how many restrictions one shape remembers.
// An auction's probes split its matrix a dozen ways or so; a full memo
// is emptied, which only costs recomputations, since restrict is a
// pure function of the key.
const restrictMemoCap = 64

// restrictMemo holds a shape's restrictions, keyed by the component
// count and then the component label of each source in bySrc order.
// restrict reads comp only at pair sources, and each pair's source
// heads one bySrc group, so the key is exactly restrict's input and a
// hit is the value restrict would compute. The memoized shapes are
// read-only and shared by every caller.
type restrictMemo struct {
	mu   sync.Mutex
	subs map[string][]*shape
}

// restricted is restrict memoized on sh (see restrictMemo). A miss
// computes under the lock: misses are a few per auction and cost
// microseconds.
func (sh *shape) restricted(comp []int, numComp int) []*shape {
	var kb [128]byte
	key := binary.AppendUvarint(kb[:0], uint64(numComp))
	for _, group := range sh.bySrc {
		key = binary.AppendUvarint(key, uint64(comp[group[0].src]))
	}
	m := &sh.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if subs, ok := m.subs[string(key)]; ok {
		return subs
	}
	if m.subs == nil {
		m.subs = make(map[string][]*shape, restrictMemoCap)
	} else if len(m.subs) == restrictMemoCap {
		clear(m.subs)
	}
	subs := sh.restrict(comp, numComp)
	m.subs[string(key)] = subs
	return subs
}

// restrict splits sh into one shape per component (comp labels the
// routers; every pair lies inside one), nil where there is no demand.
// pairs, bySize and bySrc are filtered in order and pair renumbered.
// Nothing is re-sorted and no row total re-folded: the comparators are
// total orders and a source's row lies inside one component, so order
// and fp are what newShape gives the component's own matrix.
func (sh *shape) restrict(comp []int, numComp int) []*shape {
	out := make([]*shape, numComp)
	renum := make([]int, len(sh.pairs))
	for i, d := range sh.pairs {
		if out[comp[d.src]] == nil {
			out[comp[d.src]] = emptyShape(sh.n)
		}
		renum[i] = out[comp[d.src]].add(d)
	}
	for _, d := range sh.bySize {
		d.pair = renum[d.pair]
		out[comp[d.src]].bySize = append(out[comp[d.src]].bySize, d)
	}
	rows := make([]demand, 0, len(sh.pairs))
	for _, group := range sh.bySrc {
		lo := len(rows)
		for _, d := range group {
			d.pair = renum[d.pair]
			rows = append(rows, d)
		}
		sub := out[comp[group[0].src]]
		sub.bySrc = append(sub.bySrc, rows[lo:])
	}
	return out
}

// checkParts is the decomposition step of a probe miss: it evaluates
// the planned components (ascending label order — labels are ranks of
// smallest router index, so the order is deterministic) and merges.
// ok=false means there is no plan or a fallback condition fired, and
// the caller computes the probe cold. The merged core is the union of
// the component cores — exactly the cold core, since every cold routing
// is the disjoint union of its component restrictions.
func (fc *FeasibilityCache) checkParts(p *topo.POCNetwork, include *linkset.Set, sh *shape, c Constraint, opts Options, metric uint64, needCore bool) (CacheSummary, *linkset.Set, bool) {
	// The plan lives in this arena's scratch until the merge ends; the
	// component checks route on arenas of their own. Nothing they keep
	// points into the plan: keys copy the include words, apply copies
	// them into the arena.
	ws := opts.Workspace
	rt := ws.acquire()
	defer ws.release(rt)
	comps, reason := decomposePlan(rt, include, sh, c, opts)
	if comps == nil {
		fc.fallbacks[reason].Add(1)
		return CacheSummary{}, nil, false
	}
	// Component checks run Obs-stripped: cold evaluation of this probe
	// records one check, not one per region. The merged result records
	// against the global key in checked, insert-win, exactly as cold
	// would.
	sub := opts
	sub.Obs = nil
	merged := CacheSummary{Feasible: true}
	var core *linkset.Set
	if needCore {
		core = linkset.New(len(p.Links))
	}
	unplacedComps := 0
	for _, comp := range comps {
		copts := sub
		cc := c
		if c == Constraint2 {
			if comp.fs == 0 {
				cc = Constraint1
			} else {
				copts.FailureScenarios = comp.fs
			}
		}
		sum, ccore := fc.checked(p, comp.include, comp.sh.fp, func() *shape { return comp.sh }, cc, copts, metric, needCore, false)
		if !sum.Feasible {
			merged.Feasible = false
		}
		if sum.Unplaced != 0 {
			unplacedComps++
		}
		merged.Unplaced += sum.Unplaced
		if sum.MaxUtilization > merged.MaxUtilization {
			merged.MaxUtilization = sum.MaxUtilization
		}
		merged.Paths += sum.Paths
		merged.Moves += sum.Moves
		if needCore && ccore != nil {
			core.Union(ccore)
		}
	}
	if merged.Moves >= 512 {
		fc.fallbacks[fallbackMoves].Add(1)
		return CacheSummary{}, nil, false
	}
	if unplacedComps >= 2 {
		fc.fallbacks[fallbackUnplaced].Add(1)
		return CacheSummary{}, nil, false
	}
	if !merged.Feasible {
		core = nil
	}
	fc.decompositions.Add(1)
	return merged, core, true
}
