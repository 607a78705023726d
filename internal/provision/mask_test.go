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
// search finds on the arena at that point, where place may have resumed
// the arena's last search from the same source, to this destination or
// another; after the last one, a fresh search must agree that place had
// to stop, and the arena must be back in the state place left, bit for
// bit.
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

// searchLog is what watchSearches saw: every point search, those that
// resumed the arena's last search, and those of them that resumed a
// search to another destination.
type searchLog struct{ searches, resumed, retargeted int }

// watchSearches installs the checkSearch hook until the test ends. On
// every open-mask search of an arena that searched before, the arena's
// changed set must name the tail router of every edge position whose
// open bit moved since that search; and when the search resumes, of
// every position whose admission moved: the mask it runs under against
// the last search's, an enabled-mask search's too.
func watchSearches(t *testing.T) *searchLog {
	type snap struct {
		open, admit []uint64
		src, dst    int
	}
	var log searchLog
	snaps := map[*router]snap{}
	checkSearch = func(rt *router, src, dst int, m graph.Mask, resume bool) {
		t.Helper()
		admit := slices.Clone(m.Open)
		for l := range rt.p.Links {
			if l>>6 < len(m.Avoid) && m.Avoid[l>>6]&(1<<(l&63)) != 0 {
				rt.setBits(admit, l, false)
			}
		}
		log.searches++
		last, searched := snaps[rt]
		if searched && rt.track && &m.Open[0] == &rt.open[0] {
			for l, ends := range rt.p.Links {
				for k, p := range rt.posFor[l] {
					tail := []int{ends.A, ends.B}[k]
					bit := uint64(1) << (p & 63)
					moved := (last.open[p>>6]^rt.open[p>>6])&bit != 0
					if resume {
						moved = moved || (last.admit[p>>6]^admit[p>>6])&bit != 0
					}
					if moved && rt.changed&(1<<uint(tail)) == 0 {
						t.Fatalf("link %d's edge out of router %d moved since the arena's last search (%d->%d), but changed %#x leaves the router out",
							l, tail, last.src, last.dst, rt.changed)
					}
				}
			}
		}
		if resume {
			log.resumed++
			if last.src == src && last.dst != dst {
				log.retargeted++
			}
		}
		snaps[rt] = snap{open: slices.Clone(rt.open), admit: admit, src: src, dst: dst}
	}
	t.Cleanup(func() { checkSearch = nil })
	return &log
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
// search (checkSplits). Consecutive places mostly share a source across
// destinations and often an avoid set, so their searches resume one
// another; watchSearches checks the arena's changed set at each.
func TestArenaMasksTrackResiduals(t *testing.T) {
	log := watchSearches(t)
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
		var avoid *linkset.Set
		src := rng.Intn(n)
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
				switch rng.Intn(6) {
				case 0:
					avoid = nil
				case 1:
					avoid = randomSubset(rng, len(p.Links), 2)
				}
				if rng.Intn(3) == 0 {
					src = rng.Intn(n)
				}
				d, maxPaths := demand{src: src, dst: rng.Intn(n)}, 1+rng.Intn(4)
				resid0, open0 := slices.Clone(rt.resid), slices.Clone(rt.open)
				added, remaining := rt.place(res, d, 5+rng.Float64()*60, maxPaths, avoid)
				splits := res.lists[0][len(res.lists[0])-added:]
				checkSplits(t, rt, d, avoid, resid0, open0, splits, maxPaths, remaining)
				placed = append(placed, splits...)
			}
			checkMasks(t, rt, when)
		}
		ws.giveRouting(res)
		ws.release(rt)
	}
	if log.resumed < 3000 || log.retargeted < 700 {
		t.Fatalf("%d searches: %d resumed the arena's last one, %d of them to another destination; want at least 3000 and 700",
			log.searches, log.resumed, log.retargeted)
	}
}

// TestShaverMasksTrackResiduals runs random TryDrop sequences — ban,
// incremental repair, avoid-set move, scenario rebuild, rollback, unban — and
// checks the invariant on every arena the shave holds and on every
// arena it has returned to the pool.
func TestShaverMasksTrackResiduals(t *testing.T) {
	watchSearches(t)
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
