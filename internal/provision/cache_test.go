package provision

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/public-option/poc/internal/fnv64"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

func TestFeasibilityCacheHitsAndMisses(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	fc := NewFeasibilityCache()

	ok, _ := fc.Check(p, nil, tm, Constraint1, Options{}, 0)
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	if fc.Stats().Hits != 0 || fc.Stats().Misses != 1 {
		t.Fatalf("hits=%d misses=%d after first lookup, want 0/1", fc.Stats().Hits, fc.Stats().Misses)
	}
	ok, _ = fc.Check(p, nil, tm, Constraint1, Options{}, 0)
	if !ok {
		t.Fatal("cached answer flipped")
	}
	if fc.Stats().Hits != 1 || fc.Stats().Misses != 1 {
		t.Fatalf("hits=%d misses=%d after repeat, want 1/1", fc.Stats().Hits, fc.Stats().Misses)
	}

	// A different include set is a different key.
	inc := linkset.FromIDs([]int{0, 1}, len(p.Links))
	if ok, _ := fc.Check(p, inc, tm, Constraint1, Options{}, 0); !ok {
		t.Fatal("two-link subset infeasible")
	}
	if fc.Stats().Misses != 2 {
		t.Fatalf("misses=%d after distinct set, want 2", fc.Stats().Misses)
	}
	if fc.Stats().Entries != 2 {
		t.Fatalf("len=%d, want 2", fc.Stats().Entries)
	}
}

// TestFeasibilityCacheCoreUpgrade pins the Check->core upgrade path: a
// plain Check entry has no core, so a probe that needs the core for the
// same key recomputes once and the upgraded entry then serves core hits.
func TestFeasibilityCacheCoreUpgrade(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	fc := NewFeasibilityCache()

	if ok, _ := fc.Check(p, nil, tm, Constraint1, Options{}, 0); !ok {
		t.Fatal("infeasible")
	}
	sum, core := fc.Probe(p, nil, tm, Constraint1, Options{}, 0, true, false)
	if !sum.Feasible || core == nil || core.Len() == 0 {
		t.Fatalf("core upgrade failed: ok=%v core=%v", sum.Feasible, core)
	}
	misses := fc.Stats().Misses
	sum2, core2 := fc.Probe(p, nil, tm, Constraint1, Options{}, 0, true, false)
	if !sum2.Feasible || core2 == nil {
		t.Fatal("core hit failed")
	}
	if fc.Stats().Misses != misses {
		t.Fatal("core hit recomputed")
	}
}

// TestNetworkFPFullEndpoints: the packed identity word holds an
// endpoint in 8 bits. Two 300-router networks that differ only in one
// link's endpoint (1 vs 257) must still fingerprint differently — a
// shared cache would otherwise answer one network's probe with the
// other's entry — while a network whose fields fit the word keeps the
// single-word bytes persisted keys were written with.
func TestNetworkFPFullEndpoints(t *testing.T) {
	chain := func(routers, b0 int) *topo.POCNetwork {
		p := &topo.POCNetwork{Routers: make([]int, routers), BPs: make([]topo.BP, 2)}
		for i := 0; i+1 < routers; i++ {
			p.Links = append(p.Links, topo.LogicalLink{ID: i, BP: i % 2, A: i, B: i + 1, Capacity: 10, DistanceKm: 100})
		}
		p.Links[0].B = b0
		return p
	}
	fc := NewFeasibilityCache()
	if fc.networkFP(chain(300, 1)) == fc.networkFP(chain(300, 257)) {
		t.Fatal("networks differing only in endpoint 1 vs 257 share a fingerprint")
	}

	small := chain(200, 1)
	small.Links = append(small.Links, topo.LogicalLink{ID: len(small.Links), BP: topo.VirtualBP, A: 5, B: 9, Capacity: 40, DistanceKm: 7})
	h := uint64(fnv64.Offset)
	h = fnv64.Mix(h, uint64(len(small.Routers)))
	h = fnv64.Mix(h, uint64(len(small.Links)))
	for _, l := range small.Links {
		h = fnv64.Mix(h, uint64(l.ID)<<32|uint64(l.BP&0xffff)<<16|uint64(l.A&0xff)<<8|uint64(l.B&0xff))
		h = fnv64.Mix(h, math.Float64bits(l.Capacity))
		h = fnv64.Mix(h, math.Float64bits(l.DistanceKm))
	}
	if got := fc.networkFP(small); got != h {
		t.Fatalf("fingerprint of a network that fits the packed word moved: %#x, want %#x", got, h)
	}
}

// TestDeterminedSingleFlight: lookups of a determination another
// goroutine is computing wait for it. A success is computed once and
// every waiting lookup counts a hit; a failure hands its error to the
// waiters, stores nothing, and every lookup counts the miss a lookup
// after it would.
func TestDeterminedSingleFlight(t *testing.T) {
	p := shaveNet(10, 10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	start := linkset.All(len(p.Links))
	sel := linkset.FromIDs([]int{1, 3}, len(p.Links))
	fail := errors.New("unacceptable")
	const callers = 5
	waiting := make(chan struct{}, callers)
	waitHook = func() { waiting <- struct{}{} }
	defer func() { waitHook = nil }()
	for _, want := range []error{nil, fail} {
		fc := NewFeasibilityCache()
		var computes atomic.Int64
		started, release := make(chan struct{}), make(chan struct{})
		compute := func() (*linkset.Set, int, error) {
			if computes.Add(1) == 1 {
				close(started)
				<-release
			}
			if want != nil {
				return nil, 0, want
			}
			return sel, 9, nil
		}
		var wg sync.WaitGroup
		lookup := func() {
			defer wg.Done()
			got, checks, err := fc.Determined(p, start, tm, Constraint1, Options{}, 7, 40, compute)
			if err != want || (want == nil && (!sameCore(got, sel) || checks != 9)) {
				t.Errorf("lookup returned %v, %d checks, %v; want the computation's, %v", got.AppendIDs(nil), checks, err, want)
			}
		}
		wg.Add(callers)
		go lookup()
		<-started
		for i := 1; i < callers; i++ {
			go lookup()
		}
		for i := 1; i < callers; i++ {
			select {
			case <-waiting:
			case <-time.After(10 * time.Second):
				close(release)
				wg.Wait()
				t.Fatalf("%d of %d lookups waited for the computation in flight", i-1, callers-1)
			}
		}
		close(release)
		wg.Wait()
		st := fc.Stats()
		if computes.Load() != 1 {
			t.Fatalf("%d lookups ran %d computations, want 1", callers, computes.Load())
		}
		if want == nil && (st.DeterminationMisses != 1 || st.DeterminationHits != callers-1 || st.DeterminationEntries != 1) {
			t.Fatalf("success: stats %+v; want 1 miss, %d hits, 1 entry", st, callers-1)
		}
		if want != nil && (st.DeterminationMisses != callers || st.DeterminationHits != 0 || st.DeterminationEntries != 0) {
			t.Fatalf("failure: stats %+v; want %d misses, no hit, no entry", st, callers)
		}
	}
}
