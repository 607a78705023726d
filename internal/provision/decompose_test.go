package provision

import (
	"math/rand"
	"testing"

	"github.com/public-option/poc/internal/linkset"
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
