package provision

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// testNet builds a small POC network directly: routers 0..3 in a ring
// plus one chord, each link owned by a distinct BP.
//
//	0 --(l0)-- 1
//	|          |
//	(l3)      (l1)
//	|          |
//	3 --(l2)-- 2      and chord l4: 0--2
func testNet(capacity float64) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 4)},
		BPs:     make([]topo.BP, 5),
		Routers: []int{0, 1, 2, 3},
	}
	add := func(bp, a, b int, dist float64) {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: bp, A: a, B: b, Capacity: capacity, DistanceKm: dist,
		})
	}
	add(0, 0, 1, 100)
	add(1, 1, 2, 100)
	add(2, 2, 3, 100)
	add(3, 3, 0, 100)
	add(4, 0, 2, 250) // chord, longer
	return p
}

func tmSingle(n, src, dst int, gbps float64) *traffic.Matrix {
	m := traffic.NewMatrix(n)
	m.Set(src, dst, gbps)
	return m
}

// assignments returns the paths Visit reports for demand (src,dst).
func assignments(r *Routing, src, dst int) []PathAssignment {
	var out []PathAssignment
	r.Visit(func(s, d int, asgs []PathAssignment) {
		if s == src && d == dst {
			out = asgs
		}
	})
	return out
}

func TestRouteSingleDemand(t *testing.T) {
	p := testNet(10)
	r := Route(p, nil, tmSingle(4, 0, 2, 5), Options{}, nil)
	if !r.Feasible() {
		t.Fatalf("unplaced = %v", r.Unplaced)
	}
	asg := assignments(r, 0, 2)
	if len(asg) != 1 {
		t.Fatalf("assignments = %+v, want single path", asg)
	}
	// Shortest is 0-1-2 (200km) over the 250km chord.
	if len(asg[0].Links) != 2 || asg[0].Links[0] != 0 || asg[0].Links[1] != 1 {
		t.Fatalf("path links = %v, want [0 1]", asg[0].Links)
	}
	used := map[int]float64{}
	r.VisitUsed(func(l int, gbps float64) { used[l] = gbps })
	if used[0] != 5 || used[1] != 5 {
		t.Fatalf("used = %v, %v", used[0], used[1])
	}
}

func TestRouteSplitsAcrossPaths(t *testing.T) {
	p := testNet(10)
	// 25 Gbps from 0 to 2: 10 via 0-1-2, 10 via chord, 5 via 0-3-2.
	r := Route(p, nil, tmSingle(4, 0, 2, 25), Options{}, nil)
	if !r.Feasible() {
		t.Fatalf("unplaced = %v", r.Unplaced)
	}
	asg := assignments(r, 0, 2)
	if len(asg) != 3 {
		t.Fatalf("got %d paths, want 3: %+v", len(asg), asg)
	}
	total := 0.0
	for _, a := range asg {
		total += a.Gbps
	}
	if total != 25 {
		t.Fatalf("placed %v, want 25", total)
	}
}

func TestRouteInfeasibleReportsUnplaced(t *testing.T) {
	p := testNet(10)
	// Max deliverable 0->2 is 10+10+10 = 30 (three disjoint routes).
	r := Route(p, nil, tmSingle(4, 0, 2, 35), Options{}, nil)
	if r.Feasible() {
		t.Fatal("expected infeasible")
	}
	if r.Unplaced != 5 {
		t.Fatalf("unplaced = %v, want 5", r.Unplaced)
	}
	if len(r.UnplacedPairs) != 1 || r.UnplacedPairs[0] != [2]int{0, 2} {
		t.Fatalf("unplaced pairs = %v", r.UnplacedPairs)
	}
}

func TestRouteMaxPathsLimit(t *testing.T) {
	p := testNet(10)
	r := Route(p, nil, tmSingle(4, 0, 2, 25), Options{MaxPaths: 1}, nil)
	if r.Feasible() {
		t.Fatal("MaxPaths=1 should not fit 25 Gbps")
	}
	if r.Unplaced != 15 {
		t.Fatalf("unplaced = %v, want 15", r.Unplaced)
	}
}

func TestRouteRespectsInclude(t *testing.T) {
	p := testNet(10)
	include := linkset.FromIDs([]int{0, 1}, len(p.Links)) // only 0-1 and 1-2
	r := Route(p, include, tmSingle(4, 0, 2, 5), Options{}, nil)
	if !r.Feasible() {
		t.Fatal("path 0-1-2 should suffice")
	}
	r = Route(p, include, tmSingle(4, 0, 3, 1), Options{}, nil)
	if r.Feasible() {
		t.Fatal("router 3 unreachable without links 2/3")
	}
}

func TestRouteAvoidPrimary(t *testing.T) {
	p := testNet(10)
	avoid := []*linkset.Set{
		linkset.FromIDs([]int{0, 1}, len(p.Links)), // pair 0 is (0,2): ban the 0-1-2 path
	}
	r := Route(p, nil, tmSingle(4, 0, 2, 5), Options{}, avoid)
	if !r.Feasible() {
		t.Fatal("chord should carry the demand")
	}
	for _, a := range assignments(r, 0, 2) {
		for _, l := range a.Links {
			if l == 0 || l == 1 {
				t.Fatalf("assignment used banned link %d", l)
			}
		}
	}
}

func TestRouteBidirectionalSharesCapacity(t *testing.T) {
	p := testNet(10)
	m := traffic.NewMatrix(4)
	m.Set(0, 1, 6)
	m.Set(1, 0, 6)
	r := Route(p, linkset.FromIDs([]int{0}, len(p.Links)), m, Options{MaxPaths: 1}, nil)
	// Logical link capacity is shared across directions in this model:
	// 12 > 10 means infeasible.
	if r.Feasible() {
		t.Fatal("expected shared-capacity infeasibility")
	}
	if r.Unplaced != 2 {
		t.Fatalf("unplaced = %v, want 2", r.Unplaced)
	}
}

func TestPrimaryPaths(t *testing.T) {
	p := testNet(10)
	m := traffic.NewMatrix(4)
	m.Set(0, 2, 1)
	m.Set(3, 1, 1)
	prim, unreachable := PrimaryPathsOpts(p, nil, m, Options{})
	if len(unreachable) != 0 {
		t.Fatalf("unreachable = %v", unreachable)
	}
	// Pair order is m.Demands order: (0,2) is pair 0, (3,1) pair 1.
	if len(prim) != 2 || !prim[0].Contains(0) || !prim[0].Contains(1) {
		t.Fatalf("primary(0,2) = %v, want {0,1}", prim[0].AppendIDs(nil))
	}
	// 3->1 shortest: 3-0-1 or 3-2-1, both 200km; Dijkstra picks one.
	if prim[1].Len() != 2 {
		t.Fatalf("primary(3,1) = %v, want 2 links", prim[1].AppendIDs(nil))
	}
}

func TestPrimaryPathsUnreachable(t *testing.T) {
	p := testNet(10)
	include := linkset.FromIDs([]int{0}, len(p.Links))
	m := traffic.NewMatrix(4)
	m.Set(0, 3, 1)
	prim, unreachable := PrimaryPathsOpts(p, include, m, Options{})
	if len(unreachable) != 1 || unreachable[0] != [2]int{0, 3} || prim[0] != nil {
		t.Fatalf("unreachable = %v, primary = %v, want the one pair and no primary", unreachable, prim)
	}
}

// TestConstraint2BuildsOnlyFailedPrimaries: a Constraint-2 check
// builds the primary path sets of the FailureScenarios heaviest pairs
// and no others, yet still grows a tree from every source, so a pair
// outside them that no path reaches — here one under the placement
// tolerance, which the base routing cannot see — still fails the check.
func TestConstraint2BuildsOnlyFailedPrimaries(t *testing.T) {
	p := testNet(100)
	p.World.Cities = append(p.World.Cities, topo.City{})
	p.Routers = append(p.Routers, 4) // router 4 has no link
	m := traffic.NewMatrix(5)
	for i, pr := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 0}, {3, 1}, {3, 2}} {
		m.Set(pr[0], pr[1], 1+float64(i))
	}
	const fs = 2
	built := -1
	checkPrimaries = func(c Constraint, primaries []*linkset.Set) {
		if c != Constraint2 {
			t.Errorf("primaries built for %v", c)
		}
		built = 0
		for _, set := range primaries {
			if set != nil {
				built++
			}
		}
	}
	defer func() { checkPrimaries = nil }()
	opts := Options{FailureScenarios: fs}
	if ok, _ := Check(p, nil, m, Constraint2, opts); !ok || built != fs {
		t.Fatalf("Constraint 2 over 6 reachable pairs: ok=%v, %d primary sets built, want ok and %d", ok, built, fs)
	}
	m.Set(1, 4, 1e-12)
	if ok, _ := Check(p, nil, m, Constraint1, opts); !ok {
		t.Fatal("Constraint 1 fails: the unreachable pair must sit under the placement tolerance")
	}
	built = -1
	if ok, _ := Check(p, nil, m, Constraint2, opts); ok || built != fs {
		t.Fatalf("Constraint 2 with pair (1,4) unreachable: ok=%v, %d primary sets built, want a failure after %d", ok, built, fs)
	}
}

func TestCheckConstraint1(t *testing.T) {
	p := testNet(10)
	ok, r := Check(p, nil, tmSingle(4, 0, 2, 5), Constraint1, Options{})
	if !ok || !r.Feasible() {
		t.Fatal("constraint1 should pass")
	}
	ok, _ = Check(p, nil, tmSingle(4, 0, 2, 50), Constraint1, Options{})
	if ok {
		t.Fatal("constraint1 should fail for 50 Gbps")
	}
}

func TestCheckConstraint2(t *testing.T) {
	p := testNet(10)
	// 5 Gbps 0->2. Primary 0-1-2 fails -> reroute via chord or 0-3-2. Passes.
	ok, _ := Check(p, nil, tmSingle(4, 0, 2, 5), Constraint2, Options{})
	if !ok {
		t.Fatal("constraint2 should pass with alternatives")
	}
	// Without the chord and without 3's links there is no alternative.
	include := linkset.FromIDs([]int{0, 1}, len(p.Links))
	ok, _ = Check(p, include, tmSingle(4, 0, 2, 5), Constraint2, Options{})
	if ok {
		t.Fatal("constraint2 should fail with no alternative path")
	}
}

func TestCheckConstraint2FailsWhenBaseInfeasible(t *testing.T) {
	p := testNet(10)
	ok, r := Check(p, nil, tmSingle(4, 0, 2, 100), Constraint2, Options{})
	if ok {
		t.Fatal("constraint2 must fail when base load doesn't fit")
	}
	if r.Feasible() {
		t.Fatal("returned routing should reflect infeasibility")
	}
}

func TestCheckConstraint3(t *testing.T) {
	p := testNet(10)
	// Each pair avoids its own primary. 0->2 primary is 0-1-2; the
	// chord carries it. Passes.
	ok, r := Check(p, nil, tmSingle(4, 0, 2, 5), Constraint3, Options{})
	if !ok {
		t.Fatal("constraint3 should pass")
	}
	for _, a := range assignments(r, 0, 2) {
		for _, l := range a.Links {
			if l == 0 || l == 1 {
				t.Fatal("constraint3 routing used the primary path")
			}
		}
	}
	// Demand exceeding alternative capacity: 15 Gbps can't fit when
	// banned from primary (chord 10 + 0-3-2 10 = 20 available; ok).
	// Ban everything except chord by shrinking include.
	include := linkset.FromIDs([]int{0, 1, 4}, len(p.Links))
	ok, _ = Check(p, include, tmSingle(4, 0, 2, 15), Constraint3, Options{})
	if ok {
		t.Fatal("constraint3 should fail: alternatives carry only 10")
	}
}

func TestCheckConstraintOrdering(t *testing.T) {
	// Anything passing #3 or #2 must pass #1; build a case passing #1
	// but failing #2 and #3 (no redundancy at all).
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, 2)},
		BPs:     make([]topo.BP, 1),
		Routers: []int{0, 1},
		Links: []topo.LogicalLink{
			{ID: 0, BP: 0, A: 0, B: 1, Capacity: 10, DistanceKm: 100},
		},
	}
	m := tmSingle(2, 0, 1, 5)
	ok1, _ := Check(p, nil, m, Constraint1, Options{})
	ok2, _ := Check(p, nil, m, Constraint2, Options{})
	ok3, _ := Check(p, nil, m, Constraint3, Options{})
	if !ok1 || ok2 || ok3 {
		t.Fatalf("ok1=%v ok2=%v ok3=%v, want true,false,false", ok1, ok2, ok3)
	}
}

func TestCheckUnknownConstraintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Check(testNet(10), nil, tmSingle(4, 0, 1, 1), Constraint(9), Options{})
}

func TestConstraintString(t *testing.T) {
	for c, want := range map[Constraint]string{
		Constraint1:   "constraint#1(load)",
		Constraint2:   "constraint#2(single-path-failure)",
		Constraint3:   "constraint#3(per-pair-path-failure)",
		Constraint(7): "constraint(7)",
	} {
		if c.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestMaxUtilization(t *testing.T) {
	p := testNet(10)
	r := Route(p, nil, tmSingle(4, 0, 2, 5), Options{}, nil)
	if u := r.MaxUtilization(p); u != 0.5 {
		t.Fatalf("max utilization = %v, want 0.5", u)
	}
	empty := Route(p, nil, traffic.NewMatrix(4), Options{}, nil)
	if u := empty.MaxUtilization(p); u != 0 {
		t.Fatalf("empty utilization = %v", u)
	}
}

func TestHeaviestPairs(t *testing.T) {
	m := traffic.NewMatrix(3)
	m.Set(0, 1, 1)
	m.Set(1, 2, 9)
	m.Set(2, 0, 5)
	sh := newShape(m)
	ps := sh.heaviest(2)
	if len(ps) != 2 || ps[0] != (demand{1, 2, 9, 1}) || ps[1] != (demand{2, 0, 5, 2}) {
		t.Fatalf("heaviest = %v", ps)
	}
	if got := sh.heaviest(99); len(got) != 3 {
		t.Fatalf("capped = %v", got)
	}
}

// End-to-end: the default zoo network must satisfy all three
// constraints when every offered link is included, with a traffic
// matrix scaled to fit. This is the precondition the auction relies
// on.
func TestFullZooFeasibleAllConstraints(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo feasibility is slow")
	}
	p, tm := zooInstance(1)
	for _, c := range []Constraint{Constraint1, Constraint2, Constraint3} {
		ok, r := Check(p, nil, tm, c, Options{FailureScenarios: 8})
		if !ok {
			t.Fatalf("%v infeasible on full link set: unplaced %.1f Gbps over %d pairs",
				c, r.Unplaced, len(r.UnplacedPairs))
		}
	}
}

// hashRouting digests everything a caller can read off a Routing.
func hashRouting(r *Routing) string {
	h := sha256.New()
	fmt.Fprintf(h, "%x %x %v|", math.Float64bits(r.Unplaced), math.Float64bits(r.Ejected), r.UnplacedPairs)
	r.Visit(func(src, dst int, asgs []PathAssignment) {
		for _, a := range asgs {
			fmt.Fprintf(h, "%d>%d %x %v|", src, dst, math.Float64bits(a.Gbps), a.Links)
		}
	})
	r.VisitUsed(func(l int, g float64) { fmt.Fprintf(h, "%d=%x|", l, math.Float64bits(g)) })
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestReturnedRoutingIsNeverRecycled pins the ownership rule: a Routing
// that Route or Check handed out belongs to the caller for good, so
// nothing later calls on the same Workspace write — recycled routings,
// their slabs, arena scratch — may alias it. (Run under -race in CI.)
func TestReturnedRoutingIsNeverRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := memoNet(rng, 10, 14)
	tm, other := memoTM(rng, 10, 12, 6), memoTM(rng, 10, 9, 8)
	opts := Options{FailureScenarios: 4}
	opts.Workspace = NewWorkspace(p, opts)

	kept := []*Routing{Route(p, nil, tm, opts, nil)}
	for _, c := range []Constraint{Constraint1, Constraint2, Constraint3} {
		ok, r := Check(p, nil, tm, c, opts)
		if !ok {
			t.Fatalf("%v: full set infeasible", c)
		}
		kept = append(kept, r)
	}
	var want []string
	for _, r := range kept {
		want = append(want, hashRouting(r))
	}
	fc := NewFeasibilityCache()
	for i := 0; i < 50; i++ {
		m, c := tm, Constraint(1+i%3)
		if i%2 == 1 {
			m = other
		}
		Route(p, randomSubset(rng, len(p.Links), 6), m, opts, nil)
		Check(p, nil, m, c, opts)
		fc.Probe(p, randomSubset(rng, len(p.Links), 8), m, c, opts, 0, true, false)
		if sh, ok := NewShaver(p, nil, m, c, opts); ok {
			sh.Shave(func(l int) float64 { return p.Links[l].DistanceKm }, 1)
			sh.Close()
		}
	}
	for i, r := range kept {
		if got := hashRouting(r); got != want[i] {
			t.Fatalf("routing %d changed under later calls on its workspace: %s, was %s", i, got, want[i])
		}
	}
}
