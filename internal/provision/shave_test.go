package provision

import (
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// shaveNet: two routers, three parallel links with different prices
// (price enters via the caller's price function; link IDs stand in).
func shaveNet(caps ...float64) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 2)},
		BPs:     make([]topo.BP, len(caps)),
		Routers: []int{0, 1},
	}
	for i, c := range caps {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: i, BP: i, A: 0, B: 1, Capacity: c, DistanceKm: 100 * float64(i+1),
		})
	}
	return p
}

func TestShaverDropsRedundantLinks(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8) // one link suffices
	sh, ok := NewShaver(p, nil, tm, Constraint1, Options{})
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	price := func(l int) float64 { return float64(l + 1) } // link 2 priciest
	dropped := sh.Shave(price, 0)
	if dropped != 2 {
		t.Fatalf("dropped %d links, want 2", dropped)
	}
	inc := sh.Include()
	if inc.Len() != 1 || !inc.Contains(0) {
		t.Fatalf("kept %v, want cheapest link 0", inc.AppendIDs(nil))
	}
}

func TestShaverKeepsNeededCapacity(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 15) // needs two links
	sh, ok := NewShaver(p, nil, tm, Constraint1, Options{})
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	price := func(l int) float64 { return float64(l + 1) }
	sh.Shave(price, 0)
	inc := sh.Include()
	if inc.Len() != 2 {
		t.Fatalf("kept %d links, want 2", inc.Len())
	}
	if !inc.Contains(0) || !inc.Contains(1) {
		t.Fatalf("kept %v, want the two cheapest", inc.AppendIDs(nil))
	}
}

func TestShaverInfeasibleInstance(t *testing.T) {
	p := shaveNet(10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 50)
	if _, ok := NewShaver(p, nil, tm, Constraint1, Options{}); ok {
		t.Fatal("infeasible instance accepted")
	}
}

func TestShaverTryDropRollsBack(t *testing.T) {
	p := shaveNet(10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 15) // both links needed
	sh, ok := NewShaver(p, nil, tm, Constraint1, Options{})
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	if sh.TryDrop(0) {
		t.Fatal("dropped a needed link")
	}
	// State intact: the other link can still not be dropped either,
	// and re-attempting the first fails identically (determinism).
	if sh.TryDrop(1) || sh.TryDrop(0) {
		t.Fatal("rollback corrupted state")
	}
	if sh.Include().Len() != 2 {
		t.Fatalf("include = %v", sh.Include().AppendIDs(nil))
	}
}

// TestShaverLogsComeFromWorkspace: Close gives the Shaver's undo and
// lifted logs back to the workspace, emptied, and the next Shaver on
// that workspace takes the same backing arrays.
func TestShaverLogsComeFromWorkspace(t *testing.T) {
	p := shaveNet(10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 15) // both links needed: every TryDrop rolls back
	opts := Options{}
	opts.Workspace = NewWorkspace(p, opts)
	sh, ok := NewShaver(p, nil, tm, Constraint1, opts)
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	if sh.TryDrop(0) || cap(sh.undo) == 0 || cap(sh.lifted) == 0 {
		t.Fatalf("a rolled-back drop left logs of capacity %d and %d, want both grown", cap(sh.undo), cap(sh.lifted))
	}
	undo, lifted := &sh.undo[:1][0], &sh.lifted[:1][0]
	sh.Close()
	again, ok := NewShaver(p, nil, tm, Constraint1, opts)
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	defer again.Close()
	if len(again.undo) != 0 || len(again.lifted) != 0 || cap(again.undo) == 0 || cap(again.lifted) == 0 ||
		&again.undo[:1][0] != undo || &again.lifted[:1][0] != lifted {
		t.Fatal("the next Shaver on the workspace did not take the closed one's logs, empty")
	}
}

func TestShaverTryDropUnknownLink(t *testing.T) {
	p := shaveNet(10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 5)
	sh, _ := NewShaver(p, nil, tm, Constraint1, Options{})
	if sh.TryDrop(99) {
		t.Fatal("dropped a link outside the set")
	}
	if sh.TryDrop(0) {
		t.Fatal("dropped the only link")
	}
}

func TestShaverConstraint2KeepsBackup(t *testing.T) {
	// Demand fits on one link, but Constraint2 requires surviving the
	// primary path's failure: the shave must keep a second link. Three
	// parallel links, priciest (highest ID) first: link 2 goes, then
	// neither the backup nor the primary can.
	price := func(l int) float64 { return float64(l + 1) }
	for _, tc := range []struct {
		name  string
		drops []int // explicit TryDrop sequence; nil runs Shave by price
		want  []bool
	}{
		{name: "shave by price"},
		{name: "two manual passes", drops: []int{2, 1, 0, 1, 0}, want: []bool{true, false, false, false, false}},
	} {
		p := shaveNet(10, 10, 10)
		tm := traffic.NewMatrix(2)
		tm.Set(0, 1, 8)
		sh, ok := NewShaver(p, nil, tm, Constraint2, Options{FailureScenarios: 4})
		if !ok {
			t.Fatalf("%s: feasible instance rejected", tc.name)
		}
		if tc.drops == nil {
			if n := sh.Shave(price, 0); n != 1 {
				t.Fatalf("%s: shave dropped %d links, want 1", tc.name, n)
			}
		}
		for i, l := range tc.drops {
			if got := sh.TryDrop(l); got != tc.want[i] {
				t.Fatalf("%s: drop %d: TryDrop(%d) = %v, want %v", tc.name, i, l, got, tc.want[i])
			}
		}
		if got := sh.Include().AppendIDs(nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("%s: kept %v under constraint2, want [0 1] (primary + backup)", tc.name, got)
		}
		sh.Close()
	}
}

func TestShaverConstraint3KeepsDetour(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	sh, ok := NewShaver(p, nil, tm, Constraint3, Options{})
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	price := func(l int) float64 { return float64(l + 1) }
	sh.Shave(price, 0)
	// The degraded routing must avoid the primary link entirely.
	if sh.Include().Len() != 2 {
		t.Fatalf("kept %d links under constraint3, want 2", sh.Include().Len())
	}
}

// TestShaverNeverLiftsDiagonal backs the src == dst argument on
// Shaver.place: a traffic matrix cannot hold a self-demand, and even a
// diagonal pair planted in the live routings — with the empty-path
// assignment and empty primary a routing would give it — is never
// lifted by a drop or an avoid-set move, so the Shaver never asks
// router.place to place one.
func TestShaverNeverLiftsDiagonal(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("traffic.Matrix accepted a self-demand")
			}
		}()
		traffic.NewMatrix(2).Set(0, 0, 5)
	}()
	for _, c := range []Constraint{Constraint1, Constraint3} {
		p := shaveNet(10, 10, 10)
		tm := traffic.NewMatrix(2)
		tm.Set(0, 1, 8)
		sh, ok := NewShaver(p, nil, tm, c, Options{})
		if !ok {
			t.Fatalf("%v: feasible instance rejected", c)
		}
		// A private copy of the shape, the diagonal planted at its
		// row-major position: (0,0) precedes (0,1).
		diag := demand{src: 0, dst: 0, gbps: 5, pair: 0}
		planted := &shape{pairs: []demand{diag}}
		for _, d := range sh.live[0].r.shape.pairs {
			d.pair++
			planted.pairs = append(planted.pairs, d)
		}
		for _, lr := range sh.live {
			// A nil path marks the planted assignment; a re-placement
			// would allocate one.
			lr.r.shape = planted
			lr.r.lists = append([][]PathAssignment{{{Gbps: 5}}}, lr.r.lists...)
			if lr.avoid != nil {
				lr.avoid = append([]*linkset.Set{linkset.New(len(p.Links))}, lr.avoid...)
			}
			// Planting shifted every pair index behind the crossing
			// index's back: derive it again, as newLive does.
			lr.rt.reindex(lr.r.lists)
		}
		dropped := 0
		for pass := 0; pass < 2; pass++ {
			for l := len(p.Links) - 1; l >= 0; l-- {
				if sh.TryDrop(l) {
					dropped++
				}
			}
		}
		if dropped == 0 || dropped == len(p.Links) {
			t.Fatalf("%v: %d of %d drops committed — need both commits and rollbacks", c, dropped, len(p.Links))
		}
		for _, lr := range sh.live {
			if got := lr.r.lists[0]; lr.r.shape.pairs[0] != diag || len(got) != 1 || got[0].Links != nil || got[0].Gbps != 5 {
				t.Fatalf("%v: diagonal pair was lifted: %+v", c, got)
			}
		}
		sh.Close()
	}
}

func TestShaverDeterministic(t *testing.T) {
	w := topo.DefaultWorld()
	cfg := topo.DefaultZooConfig()
	cfg.NumNetworks = 30
	nets := topo.GenerateZoo(w, cfg)
	p := topo.BuildPOCNetwork(w, nets, 10, 4, 0)
	gcfg := traffic.DefaultGravityConfig()
	gcfg.TotalGbps = 1500
	tm := traffic.Gravity(len(p.Routers), gcfg,
		func(i int) float64 { return w.Cities[p.Routers[i]].Population },
		func(i, j int) float64 { return w.Distance(p.Routers[i], p.Routers[j]) })
	price := func(l int) float64 { return p.Links[l].DistanceKm }

	var sizes []int
	for run := 0; run < 3; run++ {
		sh, ok := NewShaver(p, nil, tm, Constraint1, Options{})
		if !ok {
			t.Fatal("infeasible")
		}
		sh.Shave(price, 0)
		sizes = append(sizes, sh.Include().Len())
	}
	if sizes[0] != sizes[1] || sizes[1] != sizes[2] {
		t.Fatalf("nondeterministic shave: %v", sizes)
	}
}

func TestShaverResultStillRoutes(t *testing.T) {
	// Whatever the shave keeps must still carry the matrix.
	w := topo.DefaultWorld()
	cfg := topo.DefaultZooConfig()
	cfg.NumNetworks = 30
	nets := topo.GenerateZoo(w, cfg)
	p := topo.BuildPOCNetwork(w, nets, 10, 4, 0)
	gcfg := traffic.DefaultGravityConfig()
	gcfg.TotalGbps = 1500
	tm := traffic.Gravity(len(p.Routers), gcfg,
		func(i int) float64 { return w.Cities[p.Routers[i]].Population },
		func(i, j int) float64 { return w.Distance(p.Routers[i], p.Routers[j]) })
	sh, ok := NewShaver(p, nil, tm, Constraint1, Options{})
	if !ok {
		t.Fatal("infeasible")
	}
	before := sh.Include().Len()
	sh.Shave(func(l int) float64 { return p.Links[l].DistanceKm }, 0)
	after := sh.Include().Len()
	if after >= before {
		t.Fatalf("shave dropped nothing (%d -> %d)", before, after)
	}

	// Exact guarantee: the witness packing covers every demand and
	// respects capacities.
	witness := sh.live[0].r
	used := map[int]float64{}
	tm.Demands(func(src, dst int, gbps float64) {
		placed := 0.0
		for _, a := range assignments(witness, src, dst) {
			placed += a.Gbps
			for _, l := range a.Links {
				used[l] += a.Gbps
				if !sh.Include().Contains(l) {
					t.Fatalf("witness uses shaved link %d", l)
				}
			}
		}
		if placed < gbps-1e-6 {
			t.Fatalf("witness covers %.3f of %.3f Gbps for (%d,%d)", placed, gbps, src, dst)
		}
	})
	for l, u := range used {
		if u > p.Links[l].Capacity+1e-6 {
			t.Fatalf("witness overloads link %d: %.2f > %.2f", l, u, p.Links[l].Capacity)
		}
	}

	// Statistical guarantee: a fresh greedy route — which packs in a
	// different order — places all but a sliver thanks to the shave
	// headroom.
	r := Route(p, sh.Include(), tm, Options{}, nil)
	if r.Unplaced > 0.005*tm.Total() {
		t.Fatalf("fresh route leaves %.1f of %.1f Gbps unplaced", r.Unplaced, tm.Total())
	}
}
