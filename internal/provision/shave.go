package provision

import (
	"sort"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// ShaveHeadroom is the minimum capacity fraction the shave leaves
// unused on every link. Without it the shaved set is exactly tight
// for the shave's internal packing, and a fresh greedy Route over the
// set — which packs demands in a different order — can wedge. Five
// percent of slack absorbs that reordering in practice.
const ShaveHeadroom = 0.05

// Shaver makes a feasible link set (approximately) 1-minimal: it
// repeatedly tries to drop links, most expensive first, using
// incremental repair — only the demand assignments crossing the
// dropped link are re-placed, against the live residual capacities of
// every routing the constraint entails (the base routing, one routing
// per Constraint-2 failure scenario, and the Constraint-3 degraded
// routing). A drop commits only if every routing repairs.
//
// The failure scenarios are dynamic: a pair's "primary path" is its
// cheapest path within the *current* set, so when a drop removes a
// link on some pair's primary, that pair's scenario (Constraint2) or
// avoid set (Constraint3) is recomputed before the drop can commit.
// This keeps the shave aligned with Check, which also derives
// primaries from the candidate set.
//
// Incremental minimality is the key to consistent VCG pivots: the
// auction runs the same shave on SL and on every SL_-a, so the
// counterfactual costs are directly comparable and C(SL_-a) < C(SL)
// — impossible under exact optimization, and an artifact of greedy
// construction — becomes rare instead of systematic.
//
// A Shaver holds Workspace arenas for the lifetime of the shave (one
// per live routing, plus the metric graph); callers must Close it when
// done so the arenas return to the pool.
type Shaver struct {
	p       *topo.POCNetwork
	opts    Options
	c       Constraint
	tm      *traffic.Matrix
	include *linkset.Set
	ws      *Workspace

	base      *liveRouting
	scenarios []*scenario  // Constraint2
	degraded  *liveRouting // Constraint3 (avoid sets mutate as primaries move)

	// Cached metric arena for primaryOf, re-applied when include
	// changes.
	pgArena   *router
	pgVersion int
	version   int
}

// scenario is one Constraint-2 failure case: the traffic matrix must
// route with the pair's primary path removed.
type scenario struct {
	pair    [2]int
	primary *linkset.Set
	lr      *liveRouting
}

// liveRouting is one mutable routing the shave must keep repairable.
type liveRouting struct {
	rt *router
	// pairs is the sorted demand-pair list and lists[i] the live
	// assignments of pairs[i]. Repairs only ever re-place existing
	// pairs, so the pair set is fixed at creation; index-based
	// parallel slices keep the TryDrop hot path free of map hashing
	// (a [2]int key costs a hash plus a 16-byte compare per access)
	// and scans walk pairs in the deterministic order repairs require.
	// idx serves the rare by-pair entries (an avoid-set move).
	pairs [][2]int
	lists [][]PathAssignment
	idx   map[[2]int]int
	// avoid bans links per pair (Constraint3's degraded routing).
	avoid map[[2]int]*linkset.Set
	// banned excludes links from this routing beyond the shared
	// include set: the scenario's failed primary plus every shaved
	// link.
	banned *linkset.Set
}

// ban excludes a link from this routing by closing its directed edges
// in the private arena's masks. The arena's enabled set stays in sync,
// so a later apply() XOR-diffs from true state. Idempotent.
func (lr *liveRouting) ban(l int) {
	lr.banned.Add(l)
	lr.rt.setEnabled(l, false)
}

// unban re-admits a banned link. Only valid when the link belongs to
// the routing's include set — true at the sole call site: TryDrop's
// rollback, which re-adds the link to include first.
func (lr *liveRouting) unban(l int) {
	lr.banned.Remove(l)
	lr.rt.setEnabled(l, true)
}

// newLive routes tm over include minus failed (with per-pair avoid
// sets) and wraps the result as a liveRouting, or returns nil when
// infeasible. Shaved links must be passed in failed so the routing
// avoids them. opts must carry a resolved Workspace; the returned
// routing owns one of its arenas until released.
func newLive(p *topo.POCNetwork, include, failed *linkset.Set, avoid map[[2]int]*linkset.Set, tm *traffic.Matrix, opts Options) *liveRouting {
	inc := include
	if failed != nil && !failed.Empty() {
		inc = subtract(include, failed, len(p.Links))
	}
	r := Route(p, inc, tm, opts, avoid)
	if !r.Feasible() {
		return nil
	}
	ws := opts.Workspace
	lr := &liveRouting{
		rt:     ws.acquire(),
		avoid:  avoid,
		banned: linkset.New(len(p.Links)),
	}
	lr.rt.apply(include, opts.Headroom, ws.all)
	if failed != nil {
		failed.Iterate(func(l int) { lr.ban(l) })
	}
	// Rebuild residuals from the assignments (the routing arena inside
	// Route owned the originals). Deterministic pair order: the
	// residuals are float accumulations, and map iteration would
	// perturb every later packing decision at ULP scale.
	pairs := make([][2]int, 0, len(r.Assignments))
	for pair := range r.Assignments {
		pairs = append(pairs, pair)
	}
	sortPairs(pairs)
	lr.pairs = pairs
	lr.lists = make([][]PathAssignment, len(pairs))
	lr.idx = make(map[[2]int]int, len(pairs))
	for i, pair := range pairs {
		lr.lists[i] = r.Assignments[pair]
		lr.idx[pair] = i
		for _, a := range lr.lists[i] {
			lr.rt.addPath(a.Links, -a.Gbps)
		}
	}
	return lr
}

// NewShaver routes tm over the include set under the constraint and
// returns a Shaver ready to minimize it. It returns ok=false when the
// set is not feasible to begin with. On success the caller owns the
// Shaver's arenas and must Close it.
func NewShaver(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options) (*Shaver, bool) {
	opts = opts.withDefaults()
	if opts.Headroom < ShaveHeadroom {
		opts.Headroom = ShaveHeadroom
	}
	opts = opts.resolve(p)
	s := &Shaver{p: p, opts: opts, c: c, tm: tm, include: cloneInclude(include, len(p.Links)), ws: opts.Workspace}
	if !s.build() {
		s.Close()
		return nil, false
	}
	return s, true
}

// build creates the live routings the constraint entails, reporting
// false as soon as one is infeasible or a demand pair is unreachable.
func (s *Shaver) build() bool {
	if s.base = newLive(s.p, s.include, nil, nil, s.tm, s.opts); s.base == nil {
		return false
	}
	switch s.c {
	case Constraint1:
	case Constraint2:
		for _, pair := range s.ws.heaviest(s.tm, s.opts.FailureScenarios) {
			primary, ok := s.primaryOf(pair)
			if !ok {
				return false
			}
			lr := newLive(s.p, s.include, primary, nil, s.tm, s.opts)
			if lr == nil {
				return false
			}
			s.scenarios = append(s.scenarios, &scenario{pair: pair, primary: primary, lr: lr})
		}
	case Constraint3:
		avoid, unreachable := PrimaryPathsOpts(s.p, s.include, s.tm, s.opts)
		if len(unreachable) > 0 {
			return false
		}
		s.degraded = newLive(s.p, s.include, nil, avoid, s.tm, s.opts)
		return s.degraded != nil
	default:
		return false
	}
	return true
}

// Close returns every arena the shave holds to the workspace pool.
// Idempotent; the Shaver must not be used after Close (Include's
// result remains valid — it is not arena-backed).
func (s *Shaver) Close() {
	if s.ws == nil {
		return
	}
	release := func(lr *liveRouting) {
		if lr != nil && lr.rt != nil {
			s.ws.release(lr.rt)
			lr.rt = nil
		}
	}
	release(s.base)
	for _, sc := range s.scenarios {
		release(sc.lr)
	}
	release(s.degraded)
	if s.pgArena != nil {
		s.ws.release(s.pgArena)
		s.pgArena = nil
	}
	s.base, s.scenarios, s.degraded = nil, nil, nil
	s.ws = nil
}

// primaryOf returns the links of the pair's cheapest path within the
// current include set (by the routing metric, ignoring capacity). The
// metric arena is cached and re-applied only when the include set has
// changed since the last call.
func (s *Shaver) primaryOf(pair [2]int) (*linkset.Set, bool) {
	if s.pgArena == nil {
		s.pgArena = s.ws.acquire()
		s.pgArena.apply(s.include, 0, s.ws.all)
		s.pgVersion = s.version
	} else if s.pgVersion != s.version {
		s.pgArena.apply(s.include, 0, s.ws.all)
		s.pgVersion = s.version
	}
	links := s.pgArena.path(pair[0], pair[1], s.pgArena.enabledMask(nil))
	if len(links) == 0 {
		return nil, pair[0] == pair[1]
	}
	return linkset.FromIDs(links, len(s.p.Links)), true
}

// routings returns every live routing in deterministic order.
func (s *Shaver) routings() []*liveRouting {
	out := []*liveRouting{s.base}
	for _, sc := range s.scenarios {
		out = append(out, sc.lr)
	}
	if s.degraded != nil {
		out = append(out, s.degraded)
	}
	return out
}

// Include returns the current link set (live view; do not mutate).
func (s *Shaver) Include() *linkset.Set { return s.include }

// Witness returns the base (no-failure) packing the shave maintains —
// proof that the current set carries the matrix. The assignment
// slices are live state; callers must not mutate them.
func (s *Shaver) Witness() map[[2]int][]PathAssignment {
	out := make(map[[2]int][]PathAssignment, len(s.base.pairs))
	for i, pair := range s.base.pairs {
		out[pair] = s.base.lists[i]
	}
	return out
}

// repairUndo records one routing's repair so it can be rolled back.
// idxs holds the touched pair indices in ascending order (repairs
// process pairs in sorted order, so appending preserves it); removed
// and added run parallel to idxs.
type repairUndo struct {
	lr      *liveRouting
	idxs    []int
	removed [][]PathAssignment
	added   []int
}

// rollback undoes the repair. Both passes run in ascending pair
// order: the residual rebuilds are float accumulations, and undoing
// in any other order would leave resid at different ULPs than the
// forward repair computed, compounding across repair attempts.
func (u *repairUndo) rollback() {
	lr := u.lr
	for k, i := range u.idxs {
		n := u.added[k]
		if n == 0 {
			continue
		}
		asgs := lr.lists[i]
		for _, a := range asgs[len(asgs)-n:] {
			lr.rt.addPath(a.Links, a.Gbps)
		}
		lr.lists[i] = asgs[:len(asgs)-n]
	}
	for k, i := range u.idxs {
		for _, a := range u.removed[k] {
			lr.rt.addPath(a.Links, -a.Gbps)
			lr.lists[i] = append(lr.lists[i], a)
		}
	}
}

// repair releases the assignments lift selects among pairs [lo,hi) of
// lr and re-places each under the routing's current bans and avoid
// sets. A dropped link lifts the assignments crossing it, over every
// pair; a pair whose avoid set just changed lifts all of its own. It
// returns the undo record and whether every assignment was re-placed.
func (s *Shaver) repair(lr *liveRouting, lo, hi int, lift func(PathAssignment) bool) (*repairUndo, bool) {
	u := &repairUndo{lr: lr}
	// lr.pairs is sorted, so lifted pairs are released — and later
	// re-placed — in the deterministic order repairs require.
	for i := lo; i < hi; i++ {
		asgs := lr.lists[i]
		hit := false
		for _, a := range asgs {
			if lift(a) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		var keep, removed []PathAssignment
		for _, a := range asgs {
			if lift(a) {
				removed = append(removed, a)
				lr.rt.addPath(a.Links, a.Gbps)
			} else {
				keep = append(keep, a)
			}
		}
		lr.lists[i] = keep
		u.idxs = append(u.idxs, i)
		u.removed = append(u.removed, removed)
		u.added = append(u.added, 0)
	}
	for k, i := range u.idxs {
		pair := lr.pairs[i]
		for _, a := range u.removed[k] {
			placed := s.place(lr, pair, a.Gbps)
			u.added[k] += len(placed)
			if placed == nil {
				return u, false
			}
			lr.lists[i] = append(lr.lists[i], placed...)
		}
	}
	return u, true
}

// TryDrop attempts to remove one link. It returns true (and commits)
// when every routing repairs and every affected failure scenario
// rebuilds; otherwise the state is rolled back.
func (s *Shaver) TryDrop(link int) bool {
	if !s.include.Contains(link) {
		return false
	}
	// Tentatively remove the link everywhere, remembering which
	// routings already banned it (a Constraint-2 scenario bans its
	// failed primary; rollback must not clear that ban).
	s.include.Remove(link)
	s.version++
	entry := s.routings()
	preBanned := make([]bool, len(entry))
	for i, lr := range entry {
		preBanned[i] = lr.banned.Contains(link)
		lr.ban(link)
	}
	crossing := func(a PathAssignment) bool { return crossesLink(a, link) }
	// 1. Base routing repairs incrementally.
	u, ok := s.repair(s.base, 0, len(s.base.pairs), crossing)
	undos := []*repairUndo{u}

	// 2. Constraint-2 scenarios: a scenario whose primary contained
	// the link gets a recomputed primary and a rebuilt routing; other
	// scenarios repair incrementally.
	type scenarioSwap struct {
		sc         *scenario
		oldPrimary *linkset.Set
		oldLR      *liveRouting
		newLR      *liveRouting
	}
	var swaps []scenarioSwap
	if ok {
		for _, sc := range s.scenarios {
			if !sc.primary.Contains(link) {
				u, repaired := s.repair(sc.lr, 0, len(sc.lr.pairs), crossing)
				undos = append(undos, u)
				if !repaired {
					ok = false
					break
				}
				continue
			}
			newPrimary, reachable := s.primaryOf(sc.pair)
			if !reachable {
				ok = false
				break
			}
			failed := newPrimary.Clone()
			sc.lr.banned.Iterate(func(id int) {
				if id != link && !s.include.Contains(id) {
					// Keep previously shaved links out of the rebuild.
					failed.Add(id)
				}
			})
			failed.Add(link)
			newLR := newLive(s.p, s.include, failed, nil, s.tm, s.opts)
			if newLR == nil {
				ok = false
				break
			}
			swaps = append(swaps, scenarioSwap{sc: sc, oldPrimary: sc.primary, oldLR: sc.lr, newLR: newLR})
			sc.primary = newPrimary
			sc.lr = newLR
		}
	}

	// 3. Constraint-3 degraded routing: pairs whose primary contained
	// the link get new avoid sets and are re-placed; the rest repair
	// incrementally.
	type avoidSwap struct {
		pair [2]int
		old  *linkset.Set
	}
	var avoidSwaps []avoidSwap
	if ok && s.degraded != nil {
		u, repaired := s.repair(s.degraded, 0, len(s.degraded.pairs), crossing)
		undos = append(undos, u)
		if !repaired {
			ok = false
		}
		if ok {
			var moved [][2]int
			for pair, av := range s.degraded.avoid {
				if av.Contains(link) {
					moved = append(moved, pair)
				}
			}
			sortPairs(moved)
			for _, pair := range moved {
				newPrimary, reachable := s.primaryOf(pair)
				if !reachable {
					ok = false
					break
				}
				avoidSwaps = append(avoidSwaps, avoidSwap{pair: pair, old: s.degraded.avoid[pair]})
				s.degraded.avoid[pair] = newPrimary
				i := s.degraded.idx[pair]
				u, repaired := s.repair(s.degraded, i, i+1, func(PathAssignment) bool { return true })
				undos = append(undos, u)
				if !repaired {
					ok = false
					break
				}
			}
		}
	}

	if ok {
		// Committed: the replaced scenario routings return their arenas.
		for _, sw := range swaps {
			s.ws.release(sw.oldLR.rt)
			sw.oldLR.rt = nil
		}
		return true
	}
	// Rollback in reverse order of the mutations.
	for i := len(undos) - 1; i >= 0; i-- {
		undos[i].rollback()
	}
	if s.degraded != nil {
		for i := len(avoidSwaps) - 1; i >= 0; i-- {
			s.degraded.avoid[avoidSwaps[i].pair] = avoidSwaps[i].old
		}
	}
	for i := len(swaps) - 1; i >= 0; i-- {
		swaps[i].sc.primary = swaps[i].oldPrimary
		swaps[i].sc.lr = swaps[i].oldLR
		s.ws.release(swaps[i].newLR.rt)
		swaps[i].newLR.rt = nil
	}
	s.include.Add(link)
	s.version++
	for i, lr := range entry {
		if !preBanned[i] {
			lr.unban(link)
		}
	}
	return false
}

// place routes gbps for the pair over the live residuals, all or
// nothing: it returns nil, with the partial placements released, if the
// full amount does not fit. Banned links never reach the search — ban()
// closes them in the arena's masks — so the only per-call exclusion is
// the pair's avoid set (Constraint3).
//
// router.place would hand a src == dst pair one empty-path assignment.
// The Shaver never asks: traffic.Matrix.Set panics on a self-demand, so
// no routing holds a diagonal pair; and if one did, its empty path
// crosses no link and its primary is the empty set, so neither a drop
// nor an avoid-set move would lift it (TestShaverNeverLiftsDiagonal).
func (s *Shaver) place(lr *liveRouting, pair [2]int, gbps float64) []PathAssignment {
	out, left := lr.rt.place(pair[0], pair[1], gbps, s.opts.MaxPaths, lr.avoid[pair])
	if left > 1e-9 {
		for _, a := range out {
			lr.rt.addPath(a.Links, a.Gbps)
		}
		return nil
	}
	return out
}

// Shave runs drop passes over the current set, most expensive link
// first (per the price function), until a full pass commits nothing
// or maxPasses is reached (0 = default 3). It returns the number of
// links dropped.
func (s *Shaver) Shave(price func(link int) float64, maxPasses int) int {
	if maxPasses <= 0 {
		maxPasses = 3
	}
	dropped := 0
	for pass := 0; pass < maxPasses; pass++ {
		cand := s.include.AppendIDs(make([]int, 0, s.include.Len()))
		sort.Slice(cand, func(i, j int) bool {
			pi, pj := price(cand[i]), price(cand[j])
			if pi != pj {
				return pi > pj
			}
			return cand[i] < cand[j]
		})
		n := 0
		for _, id := range cand {
			if s.TryDrop(id) {
				n++
			}
		}
		dropped += n
		if n == 0 {
			break
		}
	}
	return dropped
}

func crossesLink(a PathAssignment, link int) bool {
	for _, l := range a.Links {
		if l == link {
			return true
		}
	}
	return false
}

func sortPairs(pairs [][2]int) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
}

// cloneInclude materializes an include set (nil means all links) as an
// independent, mutable set.
func cloneInclude(include *linkset.Set, total int) *linkset.Set {
	if include == nil {
		return linkset.All(total)
	}
	return include.Clone()
}
