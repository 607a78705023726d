package provision

import (
	"math/bits"
	"sort"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// ShaveHeadroom is the capacity fraction the shave leaves unused on
// every link. Without it the shaved set is exactly tight for the
// shave's internal packing, and a fresh greedy Route over the set —
// which packs demands in a different order — can wedge. Five percent
// of slack absorbs that reordering in practice.
const ShaveHeadroom = 0.05

// Shaver makes a feasible link set (approximately) 1-minimal: it
// repeatedly tries to drop links, most expensive first, using
// incremental repair — only the demand assignments crossing the
// dropped link are re-placed (a per-link crossing index names the pairs
// that may hold one), against the live residual capacities of
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
	sh      *shape
	include *linkset.Set
	ws      *Workspace

	// live[0] is the base routing. Under Constraint2 live[1+j] routes
	// scenarios[j]; under Constraint3 live[1] is the degraded routing,
	// whose avoid sets move as primaries do.
	live      []*liveRouting
	scenarios []scenario

	// undo logs every mutation of the TryDrop in flight, in order;
	// lifted holds the assignments its repairs released. Both are
	// truncated when the drop commits or rolls back, and reused; they
	// come from the workspace and go back to it on Close.
	shaveLogs

	// Cached metric arena for primaryOf, re-applied when include
	// changes.
	pgArena   *router
	pgVersion int
	version   int
}

// scenario is one Constraint-2 failure case: the traffic matrix must
// route with the pair's primary path removed.
type scenario struct {
	pair    demand
	primary *linkset.Set
}

// liveRouting is one mutable routing the shave must keep repairable:
// the Routing route returned, edited in place, on the arena whose
// residuals book it. Repairs only ever re-place existing pairs.
type liveRouting struct {
	rt *router
	r  *Routing
	// avoid bans links per pair (Constraint3's degraded routing).
	avoid []*linkset.Set
	// banned excludes links from this routing beyond the shared
	// include set: the scenario's failed primary plus every shaved
	// link.
	banned *linkset.Set
	// mark is where r's path slab stood when the TryDrop in flight began.
	mark slabPos
}

// undoRec is one logged mutation; kind says which fields it uses.
type undoRec struct {
	kind undoKind
	k    int // index into Shaver.live
	pair int // undoLift, undoAvoid: the pair index
	// undoLift: the released assignments are Shaver.lifted[off:off+n],
	// added placements were appended in their stead, and the repair's
	// records begin at undo[first].
	off, n, added, first int
	set                  *linkset.Set // undoAvoid: the old avoid set; undoScenario: the old primary
	lr                   *liveRouting // undoScenario: the replaced routing
}

type undoKind uint8

const (
	undoBan      undoKind = iota // the dropped link was banned on live[k]
	undoLift                     // a repair replaced part of a pair's list
	undoAvoid                    // a pair's avoid set moved to its new primary
	undoScenario                 // live[k] was rebuilt around a new primary
)

// ban excludes a link from this routing by closing its directed edges
// in the private arena's masks. The arena's enabled set stays in sync,
// so a later apply() XOR-diffs from true state. Idempotent.
func (lr *liveRouting) ban(l int) {
	lr.banned.Add(l)
	lr.rt.setEnabled(l, false)
}

// retire returns the routing and its arena to the workspace.
func (lr *liveRouting) retire(ws *Workspace) {
	ws.giveRouting(lr.r)
	ws.release(lr.rt)
	lr.r, lr.rt = nil, nil
}

// reindex rebuilds the arena's crossing index over lists: per link, a
// bitset of at least every pair holding an assignment that crosses it.
// Repairs only add bits (index), so rollback undoes nothing here: a
// stale bit costs one list scan and never changes what is lifted.
func (rt *router) reindex(lists [][]PathAssignment) {
	rt.stride = (len(lists) + 63) / 64
	rt.cross = append(rt.cross[:0], make([]uint64, rt.stride*len(rt.resid))...)
	for i, asgs := range lists {
		rt.index(i, asgs)
	}
}

// index sets pair i's bit in the row of every link asgs cross.
func (rt *router) index(i int, asgs []PathAssignment) {
	for _, a := range asgs {
		for _, l := range a.Links {
			rt.cross[l*rt.stride+i>>6] |= 1 << (i & 63)
		}
	}
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
// infeasible, so an infeasible route stops at its verdict. Shaved links
// must be passed in failed so the routing avoids them. opts must carry
// defaults and a resolved Workspace; the returned routing owns one of
// its arenas until released.
func newLive(p *topo.POCNetwork, include, failed *linkset.Set, avoid []*linkset.Set, sh *shape, opts Options) *liveRouting {
	inc := include
	if failed != nil && !failed.Empty() {
		inc = subtract(include, failed, len(p.Links))
	}
	ws := opts.Workspace
	rt := ws.acquire()
	rt.apply(inc, ShaveHeadroom, ws.all)
	r := rt.route(ws, sh, opts, avoid, readVerdict)
	if !r.Feasible() {
		ws.giveRouting(r)
		ws.release(rt)
		return nil
	}
	lr := &liveRouting{rt: rt, r: r, avoid: avoid, banned: linkset.New(len(p.Links))}
	rt.apply(include, ShaveHeadroom, ws.all)
	if failed != nil {
		failed.Iterate(func(l int) { lr.ban(l) })
	}
	// Rebuild the residuals from the assignments in index order: they
	// are float accumulations, and the packing order route booked them
	// in would leave every later repair at different ULPs.
	for _, asgs := range r.lists {
		for _, a := range asgs {
			rt.addPath(a.Links, -a.Gbps)
		}
	}
	// route's phase 3 may have indexed r on this arena; the Shaver's
	// index is rebuilt over the lists as they stand.
	rt.reindex(r.lists)
	return lr
}

// NewShaver routes tm over the include set under the constraint and
// returns a Shaver ready to minimize it. It returns ok=false when the
// set is not feasible to begin with. On success the caller owns the
// Shaver's arenas and must Close it.
func NewShaver(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options) (*Shaver, bool) {
	opts = opts.withDefaults().resolve(p)
	ws := opts.Workspace
	s := &Shaver{p: p, opts: opts, c: c, sh: ws.shapeOf(tm), include: cloneInclude(include, len(p.Links)), ws: ws, shaveLogs: ws.takeLogs()}
	if !s.build() {
		s.Close()
		return nil, false
	}
	return s, true
}

// build creates the live routings the constraint entails, reporting
// false as soon as one is infeasible or a demand pair is unreachable.
func (s *Shaver) build() bool {
	add := func(failed *linkset.Set, avoid []*linkset.Set) bool {
		lr := newLive(s.p, s.include, failed, avoid, s.sh, s.opts)
		if lr != nil {
			s.live = append(s.live, lr)
		}
		return lr != nil
	}
	if !add(nil, nil) {
		return false
	}
	switch s.c {
	case Constraint1:
	case Constraint2:
		for _, d := range s.sh.heaviest(s.opts.FailureScenarios) {
			primary, ok := s.primaryOf(d)
			if !ok || !add(primary, nil) {
				return false
			}
			s.scenarios = append(s.scenarios, scenario{pair: d, primary: primary})
		}
	case Constraint3:
		avoid, unreachable := s.ws.primaryPaths(s.include, s.sh, s.sh.pairs)
		return len(unreachable) == 0 && add(nil, avoid)
	default:
		return false
	}
	return true
}

// Close returns every arena and routing the shave holds to the
// workspace pool. Idempotent; the Shaver must not be used after Close
// (Include's result remains valid — it is not arena-backed).
func (s *Shaver) Close() {
	if s.ws == nil {
		return
	}
	for _, lr := range s.live {
		lr.retire(s.ws)
	}
	if s.pgArena != nil {
		s.ws.release(s.pgArena)
		s.pgArena = nil
	}
	s.ws.giveLogs(s.shaveLogs)
	s.live, s.scenarios, s.shaveLogs = nil, nil, shaveLogs{}
	s.ws = nil
}

// primaryOf returns the links of the pair's cheapest path within the
// current include set (by the routing metric, ignoring capacity). The
// metric arena is cached and re-applied only when the include set has
// changed since the last call.
func (s *Shaver) primaryOf(d demand) (*linkset.Set, bool) {
	if s.pgArena == nil {
		s.pgArena, s.pgVersion = s.ws.acquire(), s.version-1
	}
	if s.pgVersion != s.version {
		s.pgArena.apply(s.include, 0, s.ws.all)
		s.pgVersion = s.version
	}
	edges := s.pgArena.enabledPath(d.src, d.dst, nil)
	if len(edges) == 0 {
		return nil, d.src == d.dst
	}
	primary := linkset.New(len(s.p.Links))
	for _, eid := range edges {
		primary.Add(int(s.pgArena.linkFor[eid]))
	}
	return primary, true
}

// Include returns the current link set (live view; do not mutate).
func (s *Shaver) Include() *linkset.Set { return s.include }

// repair releases assignments of live[k] and re-places each under the
// routing's current bans and avoid sets, logging one undoLift per
// touched pair. With pair < 0 the link was dropped: it lifts the
// assignments crossing it, over the pairs the link's index row names;
// otherwise pair's avoid set just changed and it lifts all of that
// pair's. It reports whether every assignment was re-placed. Pairs
// release — and then re-place — in ascending order: the residuals are
// float accumulations.
func (s *Shaver) repair(k, link, pair int) bool {
	lr := s.live[k]
	rt, first := lr.rt, len(s.undo)
	// lift releases into s.lifted the assignments of pair i that cross
	// the link, or all of them.
	lift := func(i int, all bool) {
		asgs, off := lr.r.lists[i], len(s.lifted)
		keep := asgs[:0]
		for _, a := range asgs {
			if all || crossesLink(a, link) {
				s.lifted = append(s.lifted, a)
				rt.addPath(a.Links, a.Gbps)
			} else {
				keep = append(keep, a)
			}
		}
		if n := len(s.lifted) - off; n > 0 {
			lr.r.lists[i] = keep
			s.undo = append(s.undo, undoRec{kind: undoLift, k: k, pair: i, off: off, n: n, first: first})
		}
	}
	if pair >= 0 {
		lift(pair, true)
	} else {
		for wi, w := range rt.cross[link*rt.stride : (link+1)*rt.stride] {
			for ; w != 0; w &= w - 1 {
				lift(wi<<6|bits.TrailingZeros64(w), false)
			}
		}
	}
	for j := first; j < len(s.undo); j++ {
		u := &s.undo[j]
		d := lr.r.shape.pairs[u.pair]
		for _, a := range s.lifted[u.off : u.off+u.n] {
			// All or nothing. Banned links never reach the search — ban()
			// closes them in the arena's masks — so the only per-call
			// exclusion is the pair's avoid set. router.place would hand a
			// src == dst pair one empty-path assignment; the Shaver never
			// asks: no matrix holds a self-demand, and the empty path of a
			// planted one crosses no link and is its own empty primary, so
			// nothing lifts it (TestShaverNeverLiftsDiagonal).
			added, left := rt.place(lr.r, d, a.Gbps, s.opts.MaxPaths, avoidOf(lr.avoid, u.pair))
			if left > 1e-9 || added == 0 {
				rt.unplace(lr.r, u.pair, added)
				return false
			}
			u.added += added
			l := lr.r.lists[u.pair]
			rt.index(u.pair, l[len(l)-added:])
		}
	}
	return true
}

// unrepair rolls back the repair whose records are undo[first:end].
// Both passes run in ascending pair order — first release what was
// added, then re-book what was lifted: undoing in any other order
// would leave resid at different ULPs than the forward repair
// computed, compounding across repair attempts. Each list ends as its
// kept assignments, then the lifted ones.
func (s *Shaver) unrepair(first, end int) {
	lr := s.live[s.undo[first].k]
	for _, u := range s.undo[first:end] {
		lr.rt.unplace(lr.r, u.pair, u.added)
	}
	for _, u := range s.undo[first:end] {
		for _, a := range s.lifted[u.off : u.off+u.n] {
			lr.rt.addPath(a.Links, -a.Gbps)
			lr.r.push(u.pair, a)
		}
	}
}

// TryDrop attempts to remove one link. It returns true (and commits)
// when every routing repairs and every affected failure scenario
// rebuilds; otherwise the state is rolled back.
func (s *Shaver) TryDrop(link int) bool {
	if !s.include.Contains(link) {
		return false
	}
	// Tentatively remove the link everywhere. A routing that already
	// banned it (a Constraint-2 scenario bans its failed primary) logs
	// nothing: rollback must not clear that ban.
	s.include.Remove(link)
	s.version++
	for k, lr := range s.live {
		lr.mark = lr.r.links.slabPos
		if !lr.banned.Contains(link) {
			s.undo = append(s.undo, undoRec{kind: undoBan, k: k})
			lr.ban(link)
		}
	}
	ok := s.repairAll(link)
	if ok {
		// Committed: the replaced scenario routings go back to the pool;
		// the words of lifted paths stay dead until theirs do.
		for _, u := range s.undo {
			if u.kind == undoScenario {
				u.lr.retire(s.ws)
			}
		}
	} else {
		s.include.Add(link)
		s.version++
		for j := len(s.undo) - 1; j >= 0; j-- {
			switch u := s.undo[j]; u.kind {
			case undoBan:
				s.live[u.k].unban(link)
			case undoLift:
				s.unrepair(u.first, j+1)
				j = u.first
			case undoAvoid:
				s.live[u.k].avoid[u.pair] = u.set
			case undoScenario:
				s.live[u.k].retire(s.ws)
				s.live[u.k], s.scenarios[u.k-1].primary = u.lr, u.set
			}
		}
		// Nothing refers to the paths this drop placed any more.
		for _, lr := range s.live {
			lr.r.links.slabPos = lr.mark
		}
	}
	s.undo, s.lifted = s.undo[:0], s.lifted[:0]
	return ok
}

// repairAll brings every live routing back to feasibility after link
// left the include set, logging each mutation in s.undo; false means
// some routing could not be repaired and the log must be replayed.
func (s *Shaver) repairAll(link int) bool {
	all := func(k int) bool { return s.repair(k, link, -1) }
	// 1. Base routing repairs incrementally.
	if !all(0) {
		return false
	}
	// 2. Constraint-2 scenarios: a scenario whose primary contained
	// the link gets a recomputed primary and a rebuilt routing; other
	// scenarios repair incrementally.
	for j := range s.scenarios {
		sc, k := &s.scenarios[j], 1+j
		if !sc.primary.Contains(link) {
			if !all(k) {
				return false
			}
			continue
		}
		newPrimary, reachable := s.primaryOf(sc.pair)
		if !reachable {
			return false
		}
		failed := newPrimary.Clone()
		s.live[k].banned.Iterate(func(id int) {
			if id != link && !s.include.Contains(id) {
				// Keep previously shaved links out of the rebuild.
				failed.Add(id)
			}
		})
		failed.Add(link)
		newLR := newLive(s.p, s.include, failed, nil, s.sh, s.opts)
		if newLR == nil {
			return false
		}
		s.undo = append(s.undo, undoRec{kind: undoScenario, k: k, lr: s.live[k], set: sc.primary})
		s.live[k], sc.primary = newLR, newPrimary
	}
	// 3. Constraint-3 degraded routing: it repairs incrementally, then
	// each pair whose primary contained the link — ascending — gets a
	// new avoid set and is re-placed whole.
	if s.c != Constraint3 {
		return true
	}
	lr := s.live[1]
	if !all(1) {
		return false
	}
	for i, av := range lr.avoid {
		if !av.Contains(link) {
			continue
		}
		newPrimary, reachable := s.primaryOf(lr.r.shape.pairs[i])
		if !reachable {
			return false
		}
		s.undo = append(s.undo, undoRec{kind: undoAvoid, k: 1, pair: i, set: av})
		lr.avoid[i] = newPrimary
		if !s.repair(1, link, i) {
			return false
		}
	}
	return true
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

// cloneInclude materializes an include set (nil means all links) as an
// independent, mutable set.
func cloneInclude(include *linkset.Set, total int) *linkset.Set {
	if include == nil {
		return linkset.All(total)
	}
	return include.Clone()
}
