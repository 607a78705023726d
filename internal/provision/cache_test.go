package provision

import (
	"math"
	"testing"

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
	if fc.Hits() != 0 || fc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d after first lookup, want 0/1", fc.Hits(), fc.Misses())
	}
	ok, _ = fc.Check(p, nil, tm, Constraint1, Options{}, 0)
	if !ok {
		t.Fatal("cached answer flipped")
	}
	if fc.Hits() != 1 || fc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d after repeat, want 1/1", fc.Hits(), fc.Misses())
	}

	// A different include set is a different key.
	inc := linkset.FromIDs([]int{0, 1}, len(p.Links))
	if ok, _ := fc.Check(p, inc, tm, Constraint1, Options{}, 0); !ok {
		t.Fatal("two-link subset infeasible")
	}
	if fc.Misses() != 2 {
		t.Fatalf("misses=%d after distinct set, want 2", fc.Misses())
	}
	if fc.Len() != 2 {
		t.Fatalf("len=%d, want 2", fc.Len())
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
	misses := fc.Misses()
	sum2, core2 := fc.Probe(p, nil, tm, Constraint1, Options{}, 0, true, false)
	if !sum2.Feasible || core2 == nil {
		t.Fatal("core hit failed")
	}
	if fc.Misses() != misses {
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
