package provision

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// TestArenasShareOneGraph: every arena a workspace hands out — held at
// once, recycled, or the shave's primary-path arena — reads the one
// graph the workspace built.
func TestArenasShareOneGraph(t *testing.T) {
	p := memoNet(rand.New(rand.NewSource(1)), 12, 10)
	ws := NewWorkspace(p, Options{})
	a, b := ws.acquire(), ws.acquire()
	if a == b || a.netGraph != b.netGraph || a.g != ws.graph().g {
		t.Fatal("two arenas held at once read different graphs")
	}
	ws.release(b)
	ws.release(a)
	for range 3 {
		rt := ws.acquire()
		if rt.g != ws.graph().g {
			t.Fatal("a recycled arena reads another graph")
		}
		ws.release(rt)
	}
	tm := memoTM(rand.New(rand.NewSource(2)), 12, 10, 1)
	sh, ok := NewShaver(p, nil, tm, Constraint3, Options{Workspace: ws})
	if !ok {
		t.Fatal("full link set infeasible")
	}
	defer sh.Close()
	for _, lr := range sh.live {
		if lr.rt.g != ws.graph().g {
			t.Fatal("a shaver's live arena reads another graph")
		}
	}
}

// TestFirstAcquiresBuildOneGraph: arenas acquired concurrently from a
// fresh workspace all read one graph, built once — the metric is priced
// once per link. Run it under -race: the graph is written by its one
// build and only read after.
func TestFirstAcquiresBuildOneGraph(t *testing.T) {
	p := memoNet(rand.New(rand.NewSource(3)), 16, 20)
	var priced atomic.Int64
	ws := NewWorkspace(p, Options{LinkCost: func(l topo.LogicalLink) float64 {
		priced.Add(1)
		return l.DistanceKm
	}})
	const n = 8
	var (
		start, done sync.WaitGroup
		arenas      [n]*router
	)
	start.Add(1)
	for i := range arenas {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			arenas[i] = ws.acquire()
			// Read the graph from every arena while all are held.
			arenas[i].apply(nil, 0, ws.all)
			arenas[i].path(0, 1, nil)
		}()
	}
	start.Done()
	done.Wait()
	for i, rt := range arenas {
		if rt.netGraph != arenas[0].netGraph {
			t.Fatalf("arena %d reads a graph of its own", i)
		}
		ws.release(rt)
	}
	if got := priced.Load(); got != int64(len(p.Links)) {
		t.Fatalf("%d concurrent first acquires priced %d links of %d: the graph was built more than once", n, got, len(p.Links))
	}
}

// TestConstraint2CheckHoldsOneArena: a Constraint-2 check routes its
// failure scenarios one after another on the calling goroutine, so even
// with spare cores a fresh workspace never holds two arenas at once and
// ends the check with exactly one on its free list.
func TestConstraint2CheckHoldsOneArena(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(5))
	p := memoNet(rng, 16, 48)
	tm := memoTM(rng, 16, 40, 1)
	opts := Options{FailureScenarios: 16}
	opts.Workspace = NewWorkspace(p, opts)
	if ok, _ := Check(p, nil, tm, Constraint2, opts); !ok {
		t.Fatal("full link set infeasible: the scenarios were not all routed")
	}
	primaries, _ := PrimaryPathsOpts(p, nil, tm, opts)
	routed := 0
	for _, d := range opts.Workspace.shapeOf(tm).heaviest(opts.FailureScenarios) {
		if f := primaries[d.pair]; f != nil && !f.Empty() {
			routed++
		}
	}
	if routed < 4 {
		t.Fatalf("only %d failure scenarios: too few to show a fan-out", routed)
	}
	if got := opts.Workspace.FreeArenas(); got != 1 {
		t.Fatalf("one Constraint-2 check over %d scenarios left %d arenas on the free list, want 1", routed, got)
	}
}

// TestEveryEntryPointReturnsItsLeases: each entry point, run on a fresh
// workspace under every constraint on a feasible set and an infeasible
// one, gives back every arena and routing it took, except the one
// routing Check and Route hand their caller. A leak changes no verdict
// and no byte of output; it only pins memory and degrades reuse for
// every later call, so the workspace's own count is what shows it.
func TestEveryEntryPointReturnsItsLeases(t *testing.T) {
	// Two regions with no link between them and demand inside each, so
	// a decomposing probe is stitched from its parts.
	rng := rand.New(rand.NewSource(1))
	p := splitNet(rng, 12, 10, 20)
	tm := traffic.NewMatrix(len(p.Routers))
	sideTM(rng, tm, 0, 12, 6, 7)
	sideTM(rng, tm, 12, 10, 5, 7)
	price := func(l int) float64 { return p.Links[l].DistanceKm }
	stitched := int64(0)
	for _, c := range []Constraint{Constraint1, Constraint2, Constraint3} {
		for _, include := range []*linkset.Set{nil, linkset.New(len(p.Links))} {
			probe := func(decompose bool) func(Options) bool {
				return func(o Options) bool {
					fc := NewFeasibilityCache()
					sum, _ := fc.Probe(p, include, tm, c, o, 0, true, decompose)
					stitched += fc.Stats().Decompositions
					return sum.Feasible
				}
			}
			entries := []struct {
				name     string
				routings int // lent to the caller by contract
				run      func(Options) bool
			}{
				{"Check", 1, func(o Options) bool { ok, _ := Check(p, include, tm, c, o); return ok }},
				{"Route", 1, func(o Options) bool { return Route(p, include, tm, o, nil).Feasible() }},
				{"CheckCore", 0, func(o Options) bool { ok, _ := CheckCore(p, include, tm, c, o); return ok }},
				{"primaryPaths", 0, func(o Options) bool {
					_, unreachable := PrimaryPathsOpts(p, include, tm, o)
					return len(unreachable) == 0
				}},
				{"Probe", 0, probe(false)},
				{"Probe/decompose", 0, probe(true)},
				{"Shaver", 0, func(o Options) bool {
					s, ok := NewShaver(p, include, tm, c, o)
					if ok {
						s.Shave(price, 0)
						s.Close()
					}
					return ok
				}},
			}
			for _, e := range entries {
				opts := Options{Workspace: NewWorkspace(p, Options{})}
				if got, want := e.run(opts), include == nil; got != want {
					t.Fatalf("%v %s: feasible %v, want %v", c, e.name, got, want)
				}
				if arenas, routings := opts.Workspace.Lent(); arenas != 0 || routings != e.routings {
					t.Errorf("%v %s (feasible %v): %d arenas and %d routings still lent, want 0 and %d",
						c, e.name, include == nil, arenas, routings, e.routings)
				}
			}
		}
	}
	if stitched == 0 {
		t.Fatal("no probe was stitched from its parts: the decomposition path went unchecked")
	}
}
