package provision

import (
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/partition"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Regional decomposition (DESIGN.md §15): when the enabled subgraph of
// a probe splits into connected components and every demand pair is
// intra-component, the global check factors exactly into independent
// per-component checks — Dijkstra never relaxes across a gap, residual
// capacity never aggregates across components, and the demand order of
// each component is the order-preserved restriction of the global one.
// A probe that asks for decomposition (FeasibilityCache.Probe) detects
// that certificate on a miss, evaluates each component as an ordinary
// memoized check over the same network with a projected traffic matrix,
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

// decompComp is one component's sub-problem: its enabled links, its
// projected traffic, and its Constraint2 scenario share.
type decompComp struct {
	include *linkset.Set
	tm      *traffic.Matrix
	fs      int
}

// stitch is the decomposition step of a probe miss: plan the
// per-component sub-problems, evaluate and merge them. ok=false means
// the probe is not border-separable or a fallback condition fired, and
// the caller computes it cold. The merged core is the union of the
// component cores — exactly the cold core, since every cold routing is
// the disjoint union of its component restrictions.
func (fc *FeasibilityCache) stitch(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options, metric uint64, needCore bool) (CacheSummary, *linkset.Set, bool) {
	comps := decomposePlan(p, include, tm, c, opts)
	if comps == nil {
		return CacheSummary{}, nil, false
	}
	sum, core, ok := fc.checkParts(p, c, opts, metric, comps, needCore)
	if ok {
		fc.decompositions.Add(1)
	}
	return sum, core, ok
}

// decomposePlan builds the per-component sub-problems for a probe, or
// returns nil when the separability certificate does not hold.
func decomposePlan(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options) []decompComp {
	pt := partition.Components(p, include)
	if pt.NumComp < 2 {
		return nil
	}
	hasDemand := make([]bool, pt.NumComp)
	separable := true
	withDemand := 0
	tm.Demands(func(s, d int, g float64) {
		if !separable {
			return
		}
		if c != Constraint1 && g <= 1e-9 {
			// A sub-tolerance demand can be unreachable while the base
			// routing stays feasible; only the global unreachable-pair
			// check catches that.
			separable = false
			return
		}
		k := pt.Comp[s]
		if k != pt.Comp[d] {
			separable = false
			return
		}
		if !hasDemand[k] {
			hasDemand[k] = true
			withDemand++
		}
	})
	if !separable || withDemand < 2 {
		return nil
	}

	// The caller's workspace memoizes the projections and the pair
	// ranking per matrix; without one a transient workspace computes them.
	ws := opts.resolve(p).Workspace
	proj := ws.projections(tm, pt)

	incs := make([]*linkset.Set, pt.NumComp)
	for k, ok := range hasDemand {
		if ok {
			incs[k] = linkset.New(len(p.Links))
		}
	}
	for _, l := range p.Links {
		if include != nil && !include.Contains(l.ID) {
			continue
		}
		// Enabled links never cross components.
		if s := incs[pt.Comp[l.A]]; s != nil {
			s.Add(l.ID)
		}
	}

	var fsOf []int
	if c == Constraint2 {
		fsOf = make([]int, pt.NumComp)
		for _, q := range ws.shapeOf(tm).heaviest(opts.FailureScenarios) {
			fsOf[pt.Comp[q.src]]++
		}
	}

	comps := make([]decompComp, 0, withDemand)
	for k := 0; k < pt.NumComp; k++ {
		if !hasDemand[k] {
			continue
		}
		fs := 0
		if fsOf != nil {
			fs = fsOf[k]
		}
		comps = append(comps, decompComp{include: incs[k], tm: proj[k], fs: fs})
	}
	return comps
}

// checkParts evaluates the components (ascending label order — labels
// are ranks of smallest router index, so the order is deterministic)
// and merges. ok=false means a fallback condition fired and the caller
// must recompute the probe cold.
func (fc *FeasibilityCache) checkParts(p *topo.POCNetwork, c Constraint, opts Options, metric uint64, comps []decompComp, needCore bool) (CacheSummary, *linkset.Set, bool) {
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
		sum, ccore := fc.checked(p, comp.include, comp.tm, cc, copts, metric, needCore, false)
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
	if merged.Moves >= 512 || unplacedComps >= 2 {
		return CacheSummary{}, nil, false
	}
	if !merged.Feasible {
		core = nil
	}
	return merged, core, true
}

// projectMatrix splits tm into per-component matrices (nil for a
// component with no demand). The caller has verified every pair is
// intra-component.
func projectMatrix(tm *traffic.Matrix, pt *partition.Partition) []*traffic.Matrix {
	out := make([]*traffic.Matrix, pt.NumComp)
	tm.Demands(func(s, d int, g float64) {
		k := pt.Comp[s]
		if pt.Comp[d] != k {
			return
		}
		if out[k] == nil {
			out[k] = traffic.NewMatrix(tm.Size())
		}
		out[k].Set(s, d, g)
	})
	return out
}
