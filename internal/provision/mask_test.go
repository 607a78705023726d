package provision

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/linkset"
)

// checkMasks recomputes the arena's position masks from first
// principles — enabledPos from the enabled link set, open = enabled ∧
// resid ≥ 1e-9 — and compares them word for word with the incrementally
// maintained ones.
func checkMasks(t *testing.T, rt *router, when string) {
	t.Helper()
	wantEnabled := make([]uint64, len(rt.enabledPos))
	wantOpen := make([]uint64, len(rt.open))
	for l := range rt.p.Links {
		if !rt.enabled.Contains(l) {
			continue
		}
		rt.setBits(wantEnabled, l, true)
		if rt.resid[l] >= 1e-9 {
			rt.setBits(wantOpen, l, true)
		}
	}
	for w := range wantEnabled {
		if rt.enabledPos[w] != wantEnabled[w] {
			t.Fatalf("%s: enabledPos word %d = %#x, recomputed %#x", when, w, rt.enabledPos[w], wantEnabled[w])
		}
		if rt.open[w] != wantOpen[w] {
			t.Fatalf("%s: open word %d = %#x, recomputed %#x", when, w, rt.open[w], wantOpen[w])
		}
	}
}

// checkSplits replays one place call with a fresh search per split. It
// restores the residuals and open mask place started from, then books
// the splits place made one by one: each must be the path a fresh
// search finds on the arena at that point, where place resumed the last
// split's search; after the last one, a fresh search must agree that
// place had to stop, and the arena must be back in the state place
// left, bit for bit.
func checkSplits(t *testing.T, rt *router, d demand, avoid *linkset.Set, resid0 []float64, open0 []uint64, splits []PathAssignment, maxPaths int, remaining float64) {
	t.Helper()
	residAfter, openAfter := slices.Clone(rt.resid), slices.Clone(rt.open)
	copy(rt.resid, resid0)
	copy(rt.open, open0)
	fresh := graph.NewPointRouter(rt.g)
	m := rt.openMask(avoid)
	for i, a := range splits {
		edges, cost := fresh.PathInto(nil, graph.NodeID(d.src), graph.NodeID(d.dst), m)
		links := make([]int, len(edges))
		for j, eid := range edges {
			links[j] = int(rt.linkFor[eid])
		}
		if math.IsInf(cost, 1) || !slices.Equal(links, a.Links) {
			t.Fatalf("%d->%d split %d took links %v, a fresh search finds %v at %v", d.src, d.dst, i, a.Links, links, cost)
		}
		rt.addPath(a.Links, -a.Gbps)
	}
	if len(splits) < maxPaths && remaining > 1e-9 {
		edges, cost := fresh.PathInto(nil, graph.NodeID(d.src), graph.NodeID(d.dst), m)
		if !math.IsInf(cost, 1) && rt.bottleneck(edges, remaining) > 1e-9 {
			t.Fatalf("%d->%d: place stopped after %d splits, a fresh search finds %v", d.src, d.dst, len(splits), edges)
		}
	}
	if !slices.Equal(rt.resid, residAfter) || !slices.Equal(rt.open, openAfter) {
		t.Fatalf("%d->%d: replaying %d splits leaves other residuals or open bits than place did", d.src, d.dst, len(splits))
	}
}

func randomSubset(rng *rand.Rand, n, keepOutOf int) *linkset.Set {
	s := linkset.New(n)
	for l := 0; l < n; l++ {
		if rng.Intn(keepOutOf) != 0 {
			s.Add(l)
		}
	}
	return s
}

// TestArenaMasksTrackResiduals drives one arena through random apply /
// place / release / ban / unban / full-route sequences, with demands
// large enough to saturate links, and checks the mask invariant after
// every step, and every path split of every place against a fresh
// search (checkSplits).
func TestArenaMasksTrackResiduals(t *testing.T) {
	resumed := 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		p := memoNet(rng, n, 4+rng.Intn(12))
		tm := memoTM(rng, n, 10, 15)
		ws := NewWorkspace(p, Options{})
		rt := ws.acquire()
		lr := &liveRouting{rt: rt, banned: linkset.New(len(p.Links))}
		rt.apply(nil, 0, ws.all)
		checkMasks(t, rt, "first apply")

		// A one-pair routing for the placements to land in.
		res := ws.takeRouting(&shape{pairs: make([]demand, 1)})
		var placed []PathAssignment
		for step := 0; step < 200; step++ {
			var when string
			switch op := rng.Intn(10); {
			case op == 0:
				when = "apply"
				// Headroom 1 leaves every residual at 0: all closed.
				rt.apply(randomSubset(rng, len(p.Links), 4), []float64{0, 0.05, 1}[rng.Intn(3)], ws.all)
				lr.banned = linkset.New(len(p.Links))
				placed = placed[:0]
			case op == 1:
				when = "route"
				ws.giveRouting(rt.route(ws, ws.shapeOf(tm), Options{}.withDefaults(), nil, readRouting))
				placed = placed[:0]
			case op == 2:
				when = "ban"
				lr.ban(rng.Intn(len(p.Links)))
			case op == 3 && !lr.banned.Empty():
				when = "unban"
				lr.unban(lr.banned.AppendIDs(nil)[rng.Intn(lr.banned.Len())])
			case op <= 5 && len(placed) > 0:
				when = "release"
				i := rng.Intn(len(placed))
				for _, l := range placed[i].Links {
					rt.addResid(l, placed[i].Gbps)
				}
				placed = append(placed[:i], placed[i+1:]...)
			default:
				when = "place"
				var avoid *linkset.Set
				if rng.Intn(3) == 0 {
					avoid = randomSubset(rng, len(p.Links), 2)
				}
				d, maxPaths := demand{src: rng.Intn(n), dst: rng.Intn(n)}, 1+rng.Intn(4)
				resid0, open0 := slices.Clone(rt.resid), slices.Clone(rt.open)
				added, remaining := rt.place(res, d, 5+rng.Float64()*60, maxPaths, avoid)
				splits := res.lists[0][len(res.lists[0])-added:]
				checkSplits(t, rt, d, avoid, resid0, open0, splits, maxPaths, remaining)
				resumed += max(added-1, 0)
				placed = append(placed, splits...)
			}
			checkMasks(t, rt, when)
		}
		ws.giveRouting(res)
		ws.release(rt)
	}
	if resumed < 100 {
		t.Fatalf("only %d path splits resumed a search; want at least 100", resumed)
	}
}

// TestShaverMasksTrackResiduals runs random TryDrop sequences — ban,
// incremental repair, avoid-set move, scenario rebuild, rollback, unban — and
// checks the invariant on every arena the shave holds and on every
// arena it has returned to the pool.
func TestShaverMasksTrackResiduals(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, c := range []Constraint{Constraint1, Constraint2, Constraint3} {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(6)
			p := memoNet(rng, n, 8+rng.Intn(10))
			tm := memoTM(rng, n, 8, 6)
			sh, ok := NewShaver(p, nil, tm, c, Options{FailureScenarios: 4})
			if !ok {
				continue
			}
			committed := 0
			for step := 0; step < 3*len(p.Links); step++ {
				if sh.TryDrop(rng.Intn(len(p.Links))) {
					committed++
				}
				for _, lr := range sh.live {
					checkMasks(t, lr.rt, "live routing")
				}
				if sh.pgArena != nil {
					checkMasks(t, sh.pgArena, "metric arena")
				}
				for _, rt := range sh.ws.free {
					checkMasks(t, rt, "pooled arena")
				}
			}
			if committed == 0 || committed == 3*len(p.Links) {
				t.Logf("seed %d %v: %d commits — one-sided coverage", seed, c, committed)
			}
			sh.Close()
		}
	}
}
