package provision

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// PrimaryPathsOpts is primaryPaths for a matrix over every pair, as
// Check's Constraint 3 calls it.
func PrimaryPathsOpts(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, opts Options) ([]*linkset.Set, [][2]int) {
	ws := opts.resolve(p).Workspace
	sh := ws.shapeOf(tm)
	return ws.primaryPaths(include, sh, sh.pairs)
}

// NewArena builds one arena of ws the way acquire does when its free
// list is empty, and drops it.
func (ws *Workspace) NewArena() { newArena(ws.p, ws.graph()) }

// FreeArenas counts the arenas on ws's free list.
func (ws *Workspace) FreeArenas() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.free)
}

// Lent counts the arenas and routings ws has handed out and not had
// back.
func (ws *Workspace) Lent() (arenas, routings int) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.lent[0], ws.lent[1]
}

// StateHash digests everything a TryDrop may touch, for the trajectory
// test in package provision_test: every live routing's assignments as
// (src, dst, Gbps bits, links) in pair order then list order, followed
// by the resid bits of its arena's enabled links.
func (s *Shaver) StateHash() string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, lr := range s.live {
		lr.r.Visit(func(src, dst int, asgs []PathAssignment) {
			for _, a := range asgs {
				put(uint64(src))
				put(uint64(dst))
				put(math.Float64bits(a.Gbps))
				put(uint64(len(a.Links)))
				for _, l := range a.Links {
					put(uint64(l))
				}
			}
		})
		lr.rt.enabled.Iterate(func(l int) {
			put(uint64(l))
			put(math.Float64bits(lr.rt.resid[l]))
		})
		put(math.MaxUint64)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Matrices counts the traffic matrices the cache holds a record of —
// and therefore keeps alive.
func (fc *FeasibilityCache) Matrices() int {
	fc.tmMu.Lock()
	defer fc.tmMu.Unlock()
	return len(fc.matrices)
}

// ShapesBuilt counts the matrices the cache has built a demand shape
// for.
func (fc *FeasibilityCache) ShapesBuilt() int {
	fc.tmMu.Lock()
	defer fc.tmMu.Unlock()
	n := 0
	for _, m := range fc.matrices {
		if m.sh != nil {
			n++
		}
	}
	return n
}

// IndexError checks the crossing index's superset invariant on every
// live routing: a pair holding an assignment that crosses link l has
// its bit in l's row.
func (s *Shaver) IndexError() error {
	for k, lr := range s.live {
		rt := lr.rt
		for i, asgs := range lr.r.lists {
			for _, a := range asgs {
				for _, l := range a.Links {
					if rt.cross[l*rt.stride+i>>6]&(1<<(i&63)) == 0 {
						return fmt.Errorf("live[%d]: pair %d crosses link %d without its bit", k, i, l)
					}
				}
			}
		}
	}
	return nil
}

// WatchFreeLink makes every freeLink call until t ends compare the
// candidates the crossing index derived with a scan of every list —
// the same pairs and slots in the same order — reporting a difference
// through t, and returns a reader of how many calls it has checked.
// Calls may come from several goroutines at once.
func WatchFreeLink(t testing.TB) func() int64 {
	var calls atomic.Int64
	checkCands = func(res *Routing, l, exclude int, cands []cand) {
		calls.Add(1)
		var scan []cand
		for pair, asgs := range res.lists {
			if pair == exclude {
				continue
			}
			for slot, a := range asgs {
				if crossesLink(a, l) {
					scan = append(scan, cand{pair, slot})
				}
			}
		}
		if !slices.Equal(cands, scan) {
			t.Errorf("freeLink(link %d): the crossing index names %v, a scan of every list %v", l, cands, scan)
		}
	}
	t.Cleanup(func() { checkCands = nil })
	return calls.Load
}

// BorderedSynth is a 100-router topo.GenerateSynth instance, bordered,
// with a ring of 0.5 Gbps demands from each region's first demand
// source to the next region's, so no probe's enabled subgraph is
// separable.
func BorderedSynth() (*topo.POCNetwork, *traffic.Matrix) {
	cfg := topo.SynthConfig{
		Seed: 1, Regions: 4, Routers: 100, Links: 400, Border: 8, BPsPerRegion: 4, Hubs: 4, Pairs: 40, Gbps: 6,
	}
	s := topo.GenerateSynth(cfg)
	tm := traffic.NewMatrix(len(s.P.Routers))
	hub := make([]int, cfg.Regions) // each region's first demand source
	for i := range hub {
		hub[i] = -1
	}
	for _, d := range s.Demand {
		tm.Set(d.A, d.B, tm.At(d.A, d.B)+d.Gbps)
		if r := s.Region[d.A]; hub[r] < 0 {
			hub[r] = d.A
		}
	}
	for r, a := range hub {
		b := hub[(r+1)%len(hub)]
		tm.Set(a, b, tm.At(a, b)+0.5)
	}
	return s.P, tm
}
