package provision

import (
	"math"
	"math/rand"
	"reflect"
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
	return a == nil || a.Equal(b)
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
// every constraint, worker count and scenario budget — including
// probes that drive one side infeasible. Moves is the documented
// exception: the merged value is the components' sum, an upper bound
// on the cold maximum.
func TestDecomposedMatchesCold(t *testing.T) {
	decompositions := int64(0)
	for _, workers := range []int{1, 4} {
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
						opts := Options{Workers: workers, Workspace: ws, FailureScenarios: fs}
						// Fresh caches and a memo-free cold path per probe so
						// each comparison is decomposed-vs-cold, not hit replay.
						cold := Options{Workers: workers, FailureScenarios: fs}
						wantOK, wantR := Check(p, include, tm, c, cold)
						want := summarize(p, wantOK, wantR)
						wantCoreOK, wantCore := CheckCore(p, include, tm, c, cold)

						fc := NewFeasibilityCache()
						got, _ := fc.Probe(p, include, tm, c, opts, 0, false, true)
						if gotOK := got.Feasible; gotOK != wantOK {
							t.Fatalf("w=%d seed=%d step=%d %v fs=%d: verdict %v != cold %v",
								workers, seed, step, c, fs, got.Feasible, wantOK)
						}
						mask := func(s CacheSummary) CacheSummary { s.Moves = 0; return s }
						if mask(got) != mask(want) {
							t.Fatalf("w=%d seed=%d step=%d %v fs=%d: summary %+v != cold %+v",
								workers, seed, step, c, fs, got, want)
						}
						if got.Moves < want.Moves || got.Moves >= 512 {
							t.Fatalf("w=%d seed=%d step=%d %v fs=%d: moves bound %d vs cold %d",
								workers, seed, step, c, fs, got.Moves, want.Moves)
						}

						fc2 := NewFeasibilityCache()
						gotSum, gotCore := fc2.Probe(p, include, tm, c, opts, 0, true, true)
						if gotSum.Feasible != wantCoreOK || mask(gotSum) != mask(want) || !sameCore(gotCore, wantCore) {
							t.Fatalf("w=%d seed=%d step=%d %v fs=%d: core mismatch", workers, seed, step, c, fs)
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
		if n := fc.Stats().Decompositions; n != 0 {
			t.Fatalf("%v: decomposed %d probes despite cross-component demand", c, n)
		}
	}

	// Connected network: partition has one component, never decomposes.
	pc := memoNet(rng, 12, 8)
	tmc := memoTM(rng, 12, 5, 6)
	fc := NewFeasibilityCache()
	fc.Probe(pc, nil, tmc, Constraint2, Options{}, 0, false, true)
	if n := fc.Stats().Decompositions; n != 0 {
		t.Fatalf("connected instance decomposed %d probes", n)
	}
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
	hits := fc.Hits()
	again, _ := fc.Probe(p, nil, tm, Constraint1, opts, 0, false, true)
	if first != again {
		t.Fatalf("replay diverged: %+v vs %+v", first, again)
	}
	if fc.Hits() != hits+1 {
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
	misses := fc.Misses()
	hits = fc.Hits()
	fc.Probe(p, include, tm, Constraint1, opts, 0, false, true)
	if fc.Hits() <= hits {
		t.Fatalf("side-A component entry did not hit (hits %d -> %d, misses %d -> %d)",
			hits, fc.Hits(), misses, fc.Misses())
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

// TestRestrictMatchesProjection: for seeded random partitions of the
// synth instance's routers that keep every demand pair inside one
// component, each restricted shape is, field for field, the shape of
// the projected dense matrix, and carries that matrix's fingerprint —
// so component sub-checks route in the same order and key the same
// cache bytes as when they were given matrices.
func TestRestrictMatchesProjection(t *testing.T) {
	s := topo.GenerateSynth(topo.SynthConfig{
		Seed: 1, Regions: 8, Routers: 80, Links: 320, BPsPerRegion: 4, Hubs: 4, Pairs: 40, Gbps: 6,
	})
	n := len(s.P.Routers)
	tm := traffic.NewMatrix(n)
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
	}
	sh := newShape(tm)
	if sh.fp != matrixFP(tm) {
		t.Fatalf("shape fingerprint %x, matrix fingerprint %x", sh.fp, matrixFP(tm))
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Routers joined by a demand pair share a class; each class gets
		// a random label, so labels split regions and merge them alike.
		class := make([]int, n)
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
		pt := &partition.Partition{Comp: make([]int, n), NumComp: 2 + rng.Intn(9)}
		label := map[int]int{}
		for i := range pt.Comp {
			c := find(i)
			if _, ok := label[c]; !ok {
				label[c] = rng.Intn(pt.NumComp)
			}
			pt.Comp[i] = label[c]
		}
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
