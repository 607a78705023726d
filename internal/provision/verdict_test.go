package provision

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// routeBoth routes tm over include on arenas applied with headroom,
// once to read the routing and once to read the verdict, and hands both
// routings to the caller.
func routeBoth(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, opts Options, avoid bool, headroom float64) (full, verdict *Routing) {
	opts = opts.withDefaults().resolve(p)
	ws := opts.Workspace
	sh := ws.shapeOf(tm)
	var avoidSets []*linkset.Set
	if avoid {
		avoidSets, _ = ws.primaryPaths(include, sh, sh.pairs)
	}
	run := func(mode readMode) *Routing {
		rt := ws.acquire()
		defer ws.release(rt)
		rt.apply(include, headroom, ws.all)
		return rt.route(ws, sh, opts, avoidSets, mode)
	}
	return run(readRouting), run(readVerdict)
}

// sameRouting reports what differs between two routings, field by
// field and bit for bit, or "" when nothing does.
func sameRouting(a, b *Routing) string {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !bitsEq(a.Unplaced, b.Unplaced) || !bitsEq(a.Ejected, b.Ejected):
		return "Unplaced or Ejected"
	case !slices.Equal(a.UnplacedPairs, b.UnplacedPairs):
		return "UnplacedPairs"
	case a.moves != b.moves:
		return "moves"
	case !slices.EqualFunc(a.usage, b.usage, bitsEq):
		return "usage"
	case len(a.lists) != len(b.lists):
		return "list count"
	}
	for i := range a.lists {
		if !slices.EqualFunc(a.lists[i], b.lists[i], func(x, y PathAssignment) bool {
			return bitsEq(x.Gbps, y.Gbps) && slices.Equal(x.Links, y.Links)
		}) {
			return "a list"
		}
	}
	return ""
}

// checkVerdicts compares the two routings of routeBoth and counts into
// n the feasible cases, the infeasible ones, and those among them where
// the full route lists more than one unplaced pair.
func checkVerdicts(t testing.TB, full, verdict *Routing, n *[3]int) {
	t.Helper()
	if full.Feasible() != verdict.Feasible() {
		t.Fatalf("verdict-only route says feasible=%v, the full route %v (unplaced %g over %v)",
			verdict.Feasible(), full.Feasible(), full.Unplaced, full.UnplacedPairs)
	}
	if !full.Feasible() {
		n[1]++
		if len(full.UnplacedPairs) > 1 {
			n[2]++
		}
		if len(verdict.UnplacedPairs) != 1 || verdict.UnplacedPairs[0] != full.UnplacedPairs[0] {
			t.Fatalf("verdict-only route lists %v unplaced, the full route %v", verdict.UnplacedPairs, full.UnplacedPairs)
		}
		return
	}
	n[0]++
	if diff := sameRouting(full, verdict); diff != "" {
		t.Fatalf("feasible verdict-only routing differs from the full route in %s", diff)
	}
}

// zooInstance is the Figure 2 zoo and gravity matrix at scale, built as
// the scenario package builds them, without the external ISP.
func zooInstance(scale float64) (*topo.POCNetwork, *traffic.Matrix) {
	w := topo.DefaultWorld()
	zoo := topo.DefaultZooConfig()
	zoo.NumNetworks = max(int(float64(zoo.NumNetworks)*scale), 20)
	p := topo.BuildPOCNetwork(w, topo.GenerateZoo(w, zoo), 20, 4, 0)
	cfg := traffic.DefaultGravityConfig()
	cfg.TotalGbps *= scale * scale
	tm := traffic.Gravity(len(p.Routers), cfg,
		func(i int) float64 { return w.Cities[p.Routers[i]].Population },
		func(i, j int) float64 { return w.Distance(p.Routers[i], p.Routers[j]) })
	return p, tm
}

// TestVerdictRouteMatchesFullRoute walks include sets of the zoo at
// Scale 0.3 and of the bordered synth instance, dropping links in a
// random order, and routes each with and without avoid sets and the
// Shaver's headroom, to read the routing and to read the verdict. The verdicts must agree, a failed verdict-only
// route must list only the full route's first unplaced pair, and a
// feasible pair of routings must be identical: lists, Unplaced, moves
// and usage.
func TestVerdictRouteMatchesFullRoute(t *testing.T) {
	zp, ztm := zooInstance(0.3)
	bp, btm := BorderedSynth()
	for _, inst := range []struct {
		name string
		p    *topo.POCNetwork
		tm   *traffic.Matrix
	}{{"zoo", zp, ztm}, {"bordered", bp, btm}} {
		t.Run(inst.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			opts := Options{}.withDefaults()
			opts.Workspace = NewWorkspace(inst.p, opts)
			// A shave walk: drop links in random order, keeping a drop
			// only while the set stays feasible, so the sets stay near
			// the feasibility boundary where the Shaver probes.
			var n [3]int
			include := linkset.All(len(inst.p.Links))
			for i, l := range rng.Perm(len(inst.p.Links))[:120] {
				include.Remove(l)
				full, verdict := routeBoth(inst.p, include, inst.tm, opts, i%2 == 1, []float64{0, ShaveHeadroom}[i/2%2])
				checkVerdicts(t, full, verdict, &n)
				if !full.Feasible() {
					include.Add(l)
				}
			}
			t.Logf("%d feasible, %d infeasible, %d of them with more than one unplaced pair", n[0], n[1], n[2])
			if n[0] < 5 || n[2] < 5 {
				t.Fatalf("%d feasible include sets and %d with more than one unplaced pair; want at least 5 of each", n[0], n[2])
			}
		})
	}
}

// TestVerdictRouteStopsAtFirstUnplaced routes two demands no path
// serves: the full route lists both, the verdict-only route only the
// first it gave up on.
func TestVerdictRouteStopsAtFirstUnplaced(t *testing.T) {
	p := testNet(10)
	tm := traffic.NewMatrix(4)
	tm.Set(0, 1, 5)
	tm.Set(1, 2, 4)
	tm.Set(2, 3, 3)
	include := linkset.FromIDs([]int{0}, len(p.Links)) // 0–1 only
	full, verdict := routeBoth(p, include, tm, Options{}, false, 0)
	if len(full.UnplacedPairs) != 2 {
		t.Fatalf("full route lists %v unplaced; want both stranded pairs", full.UnplacedPairs)
	}
	if len(verdict.UnplacedPairs) != 1 || verdict.UnplacedPairs[0] != full.UnplacedPairs[0] {
		t.Fatalf("verdict-only route lists %v unplaced; want only %v", verdict.UnplacedPairs, full.UnplacedPairs[0])
	}
	if verdict.Feasible() {
		t.Fatal("verdict-only route is feasible")
	}
}

// FuzzVerdictRoute reads an include set off the input's bits, over a
// 10-router, 32-link network on which about half of all sets route (a
// tenth of them through ejection repair), and requires the verdict-only
// route to agree with the full route. The first byte picks avoid sets
// and headroom.
func FuzzVerdictRoute(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	p := memoNet(rng, 10, 24)
	tm := memoTM(rng, 10, 16, 8)
	opts := Options{}.withDefaults()
	opts.Workspace = NewWorkspace(p, opts)
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0xf7, 0xbf, 0xfd, 0xdf})
	f.Add([]byte{2, 0x5f, 0xee, 0x7b, 0xb7})
	f.Add([]byte{3, 0xff, 0x3f, 0xff, 0xf3})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		include := linkset.New(len(p.Links))
		for l := range p.Links {
			if k := 1 + l/8; k < len(in) && in[k]&(1<<(l%8)) != 0 {
				include.Add(l)
			}
		}
		full, verdict := routeBoth(p, include, tm, opts, in[0]&1 != 0, []float64{0, ShaveHeadroom}[in[0]>>1&1])
		checkVerdicts(t, full, verdict, new([3]int))
	})
}
