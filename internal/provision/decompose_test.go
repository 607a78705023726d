package provision

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/public-option/poc/internal/fnv64"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/partition"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// memoNet builds a seeded random POC network: a ring over n routers
// (so it stays connected under light pruning) plus extra chords, with
// mixed capacities so pruning sequences cross the feasibility boundary.
func memoNet(rng *rand.Rand, n, chords int) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, n)},
		Routers: make([]int, n),
	}
	for i := range p.Routers {
		p.Routers[i] = i
	}
	caps := []float64{20, 40, 80}
	add := func(a, b int) {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: len(p.Links) % 5, A: a, B: b,
			Capacity:   caps[rng.Intn(len(caps))],
			DistanceKm: 50 + rng.Float64()*450,
		})
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	for i := 0; i < chords; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			add(a, b)
		}
	}
	p.BPs = make([]topo.BP, 5)
	return p
}

func memoTM(rng *rand.Rand, n, pairs int, gbps float64) *traffic.Matrix {
	tm := traffic.NewMatrix(n)
	for i := 0; i < pairs; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			tm.Set(a, b, tm.At(a, b)+gbps*(0.5+rng.Float64()))
		}
	}
	return tm
}

func sameCore(a, b *linkset.Set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || slices.Equal(a.AppendIDs(nil), b.AppendIDs(nil))
}

// splitNet builds a border-separable POC network: two memoNet-style
// rings (nA and nB routers, plus chords) with no links between them.
func splitNet(rng *rand.Rand, nA, nB, chords int) *topo.POCNetwork {
	n := nA + nB
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, n)},
		Routers: make([]int, n),
	}
	for i := range p.Routers {
		p.Routers[i] = i
	}
	caps := []float64{20, 40, 80}
	add := func(a, b int) {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: len(p.Links) % 5, A: a, B: b,
			Capacity:   caps[rng.Intn(len(caps))],
			DistanceKm: 50 + rng.Float64()*450,
		})
	}
	ring := func(lo, n int) {
		for i := 0; i < n; i++ {
			add(lo+i, lo+(i+1)%n)
		}
		for i := 0; i < chords; i++ {
			a, b := lo+rng.Intn(n), lo+rng.Intn(n)
			if a != b {
				add(a, b)
			}
		}
	}
	ring(0, nA)
	ring(nA, nB)
	p.BPs = make([]topo.BP, 5)
	return p
}

// sideTM places demand pairs strictly within [lo,lo+n).
func sideTM(rng *rand.Rand, tm *traffic.Matrix, lo, n, pairs int, gbps float64) {
	for i := 0; i < pairs; i++ {
		a, b := lo+rng.Intn(n), lo+rng.Intn(n)
		if a != b {
			tm.Set(a, b, tm.At(a, b)+gbps*(0.5+rng.Float64()))
		}
	}
}

// TestDecomposedMatchesCold prunes a border-separable instance step by
// step and asserts the decomposed path returns the cold answer for
// every constraint and scenario budget — including
// probes that drive one side infeasible. Moves is the documented
// exception: the merged value is the components' sum, an upper bound
// on the cold maximum.
func TestDecomposedMatchesCold(t *testing.T) {
	decompositions := int64(0)
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := splitNet(rng, 12, 10, 6)
		nA := 12
		tm := traffic.NewMatrix(len(p.Routers))
		sideTM(rng, tm, 0, nA, 6, 7)
		sideTM(rng, tm, nA, len(p.Routers)-nA, 5, 7)
		ws := NewWorkspace(p, Options{})

		include := linkset.All(len(p.Links))
		for step := 0; step < 14; step++ {
			for _, c := range []Constraint{Constraint1, Constraint2, Constraint3} {
				for _, fs := range []int{0, 3} {
					opts := Options{Workspace: ws, FailureScenarios: fs}
					// Fresh caches and a memo-free cold path per probe so
					// each comparison is decomposed-vs-cold, not hit replay.
					cold := Options{FailureScenarios: fs}
					wantOK, wantR := Check(p, include, tm, c, cold)
					want := summarize(p, wantOK, wantR)
					wantCoreOK, wantCore := CheckCore(p, include, tm, c, cold)

					fc := NewFeasibilityCache()
					got, _ := fc.Probe(p, include, tm, c, opts, 0, false, true)
					if gotOK := got.Feasible; gotOK != wantOK {
						t.Fatalf("seed=%d step=%d %v fs=%d: verdict %v != cold %v",
							seed, step, c, fs, got.Feasible, wantOK)
					}
					mask := func(s CacheSummary) CacheSummary { s.Moves = 0; return s }
					if mask(got) != mask(want) {
						t.Fatalf("seed=%d step=%d %v fs=%d: summary %+v != cold %+v",
							seed, step, c, fs, got, want)
					}
					if got.Moves < want.Moves || got.Moves >= 512 {
						t.Fatalf("seed=%d step=%d %v fs=%d: moves bound %d vs cold %d",
							seed, step, c, fs, got.Moves, want.Moves)
					}

					fc2 := NewFeasibilityCache()
					gotSum, gotCore := fc2.Probe(p, include, tm, c, opts, 0, true, true)
					if gotSum.Feasible != wantCoreOK || mask(gotSum) != mask(want) || !sameCore(gotCore, wantCore) {
						t.Fatalf("seed=%d step=%d %v fs=%d: core mismatch", seed, step, c, fs)
					}
					decompositions += fc.Stats().Decompositions + fc2.Stats().Decompositions
				}
			}
			// Prune 1–2 random links for the next probe.
			ids := include.AppendIDs(nil)
			for i := 0; i < 1+rng.Intn(2) && len(ids) > 0; i++ {
				include.Remove(ids[rng.Intn(len(ids))])
			}
		}
	}
	if decompositions == 0 {
		t.Fatal("decomposed path never engaged — test is vacuous")
	}
	t.Logf("decompositions: %d", decompositions)
}

// TestDecomposedFallsBackOnCrossDemand pins the certificate: demand
// crossing the border (which no enabled link can carry) must disable
// decomposition, and on a connected instance decomposition must never
// engage — both still returning cold answers.
func TestDecomposedFallsBackOnCrossDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := splitNet(rng, 8, 8, 4)
	tm := traffic.NewMatrix(len(p.Routers))
	sideTM(rng, tm, 0, 8, 4, 5)
	tm.Set(2, 11, 3) // crosses the border: unroutable, but also un-decomposable
	ws := NewWorkspace(p, Options{})

	for _, c := range []Constraint{Constraint1, Constraint2} {
		fc := NewFeasibilityCache()
		got, _ := fc.Probe(p, nil, tm, c, Options{Workspace: ws}, 0, false, true)
		wantOK, wantR := Check(p, nil, tm, c, Options{})
		want := summarize(p, wantOK, wantR)
		if got != want {
			t.Fatalf("%v: cross-demand answer %+v != cold %+v", c, got, want)
		}
		if st := fc.Stats(); st.Decompositions != 0 || st.FallbackNoPlan != 1 {
			t.Fatalf("%v: %d decompositions and %d no-plan fallbacks despite cross-component demand, want 0 and 1",
				c, st.Decompositions, st.FallbackNoPlan)
		}
	}

	// Connected network: partition has one component, never decomposes.
	pc := memoNet(rng, 12, 8)
	tmc := memoTM(rng, 12, 5, 6)
	fc := NewFeasibilityCache()
	fc.Probe(pc, nil, tmc, Constraint2, Options{}, 0, false, true)
	if st := fc.Stats(); st.Decompositions != 0 || st.FallbackNoPlan != 1 {
		t.Fatalf("connected instance: %d decompositions and %d no-plan fallbacks, want 0 and 1",
			st.Decompositions, st.FallbackNoPlan)
	}
}

// gadgetNet is a network of n routers and the given links (a, b,
// capacity), 100 km each, all of one BP.
func gadgetNet(n int, links ...[3]float64) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, n)},
		Routers: make([]int, n),
		BPs:     make([]topo.BP, 1),
	}
	for i := range p.Routers {
		p.Routers[i] = i
	}
	for _, l := range links {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), A: int(l[0]), B: int(l[1]), Capacity: l[2], DistanceKm: 100,
		})
	}
	return p
}

// TestDecomposeFallbackReasons builds one instance per fallback
// condition and checks that the probe answers as the cold check does,
// does not decompose, and counts exactly that reason.
func TestDecomposeFallbackReasons(t *testing.T) {
	type counts struct{ noPlan, subTol, moves, unplaced int64 }
	probe := func(t *testing.T, p *topo.POCNetwork, tm *traffic.Matrix, c Constraint, want counts) {
		t.Helper()
		fc := NewFeasibilityCache()
		got, _ := fc.Probe(p, nil, tm, c, Options{}, 0, false, true)
		coldOK, coldR := Check(p, nil, tm, c, Options{})
		if cold := summarize(p, coldOK, coldR); got != cold {
			t.Fatalf("answer %+v, cold %+v", got, cold)
		}
		st := fc.Stats()
		if have := (counts{st.FallbackNoPlan, st.FallbackSubTolerance, st.FallbackMoves, st.FallbackUnplaced}); st.Decompositions != 0 || have != want {
			t.Fatalf("%d decompositions, fallbacks %+v, want 0 and %+v", st.Decompositions, have, want)
		}
	}

	t.Run("sub-tolerance", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		p := splitNet(rng, 8, 8, 4)
		tm := traffic.NewMatrix(len(p.Routers))
		sideTM(rng, tm, 0, 8, 4, 5)
		sideTM(rng, tm, 8, 8, 4, 5)
		tm.Set(1, 6, 1e-10)
		probe(t, p, tm, Constraint2, counts{subTol: 1})
		// Constraint 1 has no unreachable-pair rule and decomposes.
		fc := NewFeasibilityCache()
		fc.Probe(p, nil, tm, Constraint1, Options{}, 0, false, true)
		if st := fc.Stats(); st.Decompositions != 1 {
			t.Fatalf("Constraint 1 with a sub-tolerance demand: %d decompositions, want 1", st.Decompositions)
		}
	})

	t.Run("unplaced", func(t *testing.T) {
		// Two single-link components, each asked for more than it carries.
		p := gadgetNet(4, [3]float64{0, 1, 10}, [3]float64{2, 3, 10})
		tm := traffic.NewMatrix(4)
		tm.Set(0, 1, 50)
		tm.Set(2, 3, 30)
		probe(t, p, tm, Constraint1, counts{unplaced: 1})
	})

	t.Run("moves", func(t *testing.T) {
		// Component A: twelve sources on hub 0, twelve sinks on hub 1,
		// and 144 one-Gbps pairs across the 20-Gbps link 0–1. Each stuck
		// pair tries to move every assignment off that link, which has no
		// detour, so A alone spends the whole budget while leaving
		// demand unplaced. Component B, a ring, places its one pair.
		links := [][3]float64{{0, 1, 20}}
		for i := 0; i < 12; i++ {
			links = append(links, [3]float64{0, float64(2 + i), 1000}, [3]float64{1, float64(14 + i), 1000})
		}
		links = append(links, [3]float64{26, 27, 100}, [3]float64{27, 28, 100}, [3]float64{28, 26, 100})
		p := gadgetNet(29, links...)
		tm := traffic.NewMatrix(29)
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				tm.Set(2+i, 14+j, 1)
			}
		}
		tm.Set(26, 28, 5)
		probe(t, p, tm, Constraint1, counts{moves: 1})
	})
}

// TestDecomposedSharesCache verifies a decomposed probe stores
// the merged result under the global key (a second probe is a pure
// hit) and that component sub-results are themselves cached and reused
// across probes that only touch the other region.
func TestDecomposedSharesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := splitNet(rng, 10, 10, 5)
	tm := traffic.NewMatrix(len(p.Routers))
	sideTM(rng, tm, 0, 10, 4, 6)
	sideTM(rng, tm, 10, 10, 4, 6)
	ws := NewWorkspace(p, Options{})
	opts := Options{Workspace: ws}

	fc := NewFeasibilityCache()
	first, _ := fc.Probe(p, nil, tm, Constraint1, opts, 0, false, true)
	hits := fc.Stats().Hits
	again, _ := fc.Probe(p, nil, tm, Constraint1, opts, 0, false, true)
	if first != again {
		t.Fatalf("replay diverged: %+v vs %+v", first, again)
	}
	if fc.Stats().Hits != hits+1 {
		t.Fatal("second decomposed probe was not a global-key hit")
	}

	// Prune one side-B link: side A's sub-problem is unchanged, so its
	// component entry must hit while side B recomputes.
	var bLink int
	for _, l := range p.Links {
		if l.A >= 10 {
			bLink = l.ID
			break
		}
	}
	include := linkset.All(len(p.Links))
	include.Remove(bLink)
	misses := fc.Stats().Misses
	hits = fc.Stats().Hits
	fc.Probe(p, include, tm, Constraint1, opts, 0, false, true)
	if fc.Stats().Hits <= hits {
		t.Fatalf("side-A component entry did not hit (hits %d -> %d, misses %d -> %d)",
			hits, fc.Stats().Hits, misses, fc.Stats().Misses)
	}
}

// projectMatrix is the dense reference restrict replaced: tm split into
// per-component matrices (nil for a component with no demand), every
// pair being intra-component.
func projectMatrix(tm *traffic.Matrix, pt *partition.Partition) []*traffic.Matrix {
	out := make([]*traffic.Matrix, pt.NumComp)
	tm.Demands(func(s, d int, g float64) {
		k := pt.Comp[s]
		if out[k] == nil {
			out[k] = traffic.NewMatrix(tm.Size())
		}
		out[k].Set(s, d, g)
	})
	return out
}

// matrixFP is the fingerprint cache keys carried before shapes did:
// FNV-1a over the size and every non-zero cell of the dense matrix.
func matrixFP(tm *traffic.Matrix) uint64 {
	n := tm.Size()
	h := fnv64.Mix(fnv64.Offset, uint64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := tm.At(i, j); v != 0 {
				h = fnv64.Mix(h, uint64(i)<<32|uint64(j))
				h = fnv64.Mix(h, math.Float64bits(v))
			}
		}
	}
	return h
}

// synthShape is the demand shape of an 80-router synth instance.
func synthShape() (*shape, *traffic.Matrix) {
	s := topo.GenerateSynth(topo.SynthConfig{
		Seed: 1, Regions: 8, Routers: 80, Links: 320, BPsPerRegion: 4, Hubs: 4, Pairs: 40, Gbps: 6,
	})
	tm := traffic.NewMatrix(len(s.P.Routers))
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	return newShape(tm), tm
}

// pairClasses returns each router's class: routers joined by a demand
// pair of sh share one, named by a member.
func pairClasses(sh *shape) []int {
	class := make([]int, sh.n)
	for i := range class {
		class[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if class[x] != x {
			class[x] = find(class[x])
		}
		return class[x]
	}
	for _, d := range sh.pairs {
		class[find(d.src)] = find(d.dst)
	}
	for i := range class {
		class[i] = find(i)
	}
	return class
}

// randomLabels gives each pair class of sh a random label among 2–10
// components, so labellings split regions and merge them alike while
// every demand pair stays inside one component.
func randomLabels(rng *rand.Rand, sh *shape) *partition.Partition {
	pt := &partition.Partition{Comp: make([]int, sh.n), NumComp: 2 + rng.Intn(9)}
	label := map[int]int{}
	for i, c := range pairClasses(sh) {
		if _, ok := label[c]; !ok {
			label[c] = rng.Intn(pt.NumComp)
		}
		pt.Comp[i] = label[c]
	}
	return pt
}

// sameShapes reports where two restrictions differ, field for field,
// or "" when they are equal.
func sameShapes(got, want []*shape) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d components, want %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		switch {
		case (g == nil) != (w == nil):
			return fmt.Sprintf("component %d: shape %v, want %v", k, g != nil, w != nil)
		case g == nil:
		case g.n != w.n || g.fp != w.fp:
			return fmt.Sprintf("component %d: n, fp = %d, %x, want %d, %x", k, g.n, g.fp, w.n, w.fp)
		case !reflect.DeepEqual(g.pairs, w.pairs):
			return fmt.Sprintf("component %d: pairs differ", k)
		case !reflect.DeepEqual(g.bySize, w.bySize):
			return fmt.Sprintf("component %d: bySize differs", k)
		case !reflect.DeepEqual(g.bySrc, w.bySrc):
			return fmt.Sprintf("component %d: bySrc differs", k)
		}
	}
	return ""
}

// TestRestrictMemoMatchesCold: concurrent callers asking the memo for
// random labellings, each several times and in their own order, get
// field for field what a fresh restrict computes, and a repeated
// labelling is served from the memo.
func TestRestrictMemoMatchesCold(t *testing.T) {
	sh, _ := synthShape()
	const labellings = 24
	pts := make([]*partition.Partition, labellings)
	cold := make([][]*shape, labellings)
	for i := range pts {
		pts[i] = randomLabels(rand.New(rand.NewSource(int64(i))), sh)
		cold[i] = sh.restrict(pts[i].Comp, pts[i].NumComp)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for j := 0; j < 4*labellings; j++ {
				i := rng.Intn(labellings)
				if diff := sameShapes(sh.restricted(pts[i].Comp, pts[i].NumComp), cold[i]); diff != "" {
					t.Errorf("labelling %d: memo answer differs from restrict: %s", i, diff)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(100 + w))))
	}
	wg.Wait()
	for i, pt := range pts {
		a, b := sh.restricted(pt.Comp, pt.NumComp), sh.restricted(pt.Comp, pt.NumComp)
		if &a[0] != &b[0] {
			t.Fatalf("labelling %d: a repeated restriction was recomputed", i)
		}
	}
}

// TestRestrictMemoIsBounded: restricting by more distinct labellings
// than the memo holds keeps at most restrictMemoCap of them, and an
// evicted labelling restricts again to the same shapes.
func TestRestrictMemoIsBounded(t *testing.T) {
	sh, _ := synthShape()
	class := pairClasses(sh)
	// Label the k-th class by the k-th binary digit of i: every i below
	// 2^classes is a distinct labelling into two components.
	rank := map[int]uint{}
	for _, c := range class {
		if _, ok := rank[c]; !ok {
			rank[c] = uint(len(rank))
		}
	}
	labelling := func(i int) []int {
		comp := make([]int, sh.n)
		for r, c := range class {
			comp[r] = i >> rank[c] & 1
		}
		return comp
	}
	first := sh.restrict(labelling(0), 2)
	most := 0
	for i := 0; i < restrictMemoCap+40; i++ {
		sh.restricted(labelling(i), 2)
		if n := len(sh.memo.subs); n > restrictMemoCap {
			t.Fatalf("after %d labellings the memo holds %d entries, cap %d", i+1, n, restrictMemoCap)
		} else {
			most = max(most, n)
		}
	}
	if most != restrictMemoCap {
		t.Fatalf("the memo held at most %d of %d distinct labellings, want the cap %d", most, restrictMemoCap+40, restrictMemoCap)
	}
	if diff := sameShapes(sh.restricted(labelling(0), 2), first); diff != "" {
		t.Fatalf("evicted labelling restricts differently: %s", diff)
	}
}

// TestRestrictMatchesProjection: for seeded random partitions of the
// synth instance's routers that keep every demand pair inside one
// component, each restricted shape is, field for field, the shape of
// the projected dense matrix, and carries that matrix's fingerprint —
// so component sub-checks route in the same order and key the same
// cache bytes as when they were given matrices.
func TestRestrictMatchesProjection(t *testing.T) {
	sh, tm := synthShape()
	if sh.fp != matrixFP(tm) || demandFP(tm) != matrixFP(tm) {
		t.Fatalf("shape fingerprint %x, demandFP %x, matrix fingerprint %x", sh.fp, demandFP(tm), matrixFP(tm))
	}
	for seed := int64(1); seed <= 20; seed++ {
		pt := randomLabels(rand.New(rand.NewSource(seed)), sh)
		subs, withDemand := sh.restrict(pt.Comp, pt.NumComp), 0
		for k, m := range projectMatrix(tm, pt) {
			if m == nil {
				if subs[k] != nil {
					t.Fatalf("seed %d: component %d has a shape but no demand", seed, k)
				}
				continue
			}
			withDemand++
			if want := newShape(m); !reflect.DeepEqual(subs[k], want) {
				t.Fatalf("seed %d: component %d: restricted shape\n%+v\nprojected matrix's shape\n%+v", seed, k, subs[k], want)
			}
			if subs[k].fp != matrixFP(m) {
				t.Fatalf("seed %d: component %d: fingerprint %x, matrix fingerprint %x", seed, k, subs[k].fp, matrixFP(m))
			}
		}
		if withDemand < 2 {
			t.Fatalf("seed %d: only %d components carry demand", seed, withDemand)
		}
	}
}
