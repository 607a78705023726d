package provision

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/public-option/poc/internal/fnv64"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// CacheSummary is the memoized outcome of one feasibility check.
type CacheSummary struct {
	Feasible bool
	// Unplaced is the Gbps the base routing could not place (0 when
	// the check passed its base routing).
	Unplaced float64
	// MaxUtilization is the highest used/capacity ratio of the base
	// routing.
	MaxUtilization float64
	// Paths counts the path assignments of the routing the check kept
	// (base routing, or the degraded routing for Constraint3).
	Paths int
	// Moves is the largest ejection-repair move count any single
	// routing in the check consumed (out of the per-Route 512 budget).
	// Regional decomposition sums it across regions to prove the
	// budget never binds differently between the global and per-region
	// runs; the metrics layer never exports it.
	Moves int
}

// FeasibilityCache memoizes Check outcomes across the near-identical
// link sets the auction's winner determination probes: the batch
// refinement re-tries the same expensive links round after round, and
// every counterfactual run replays most of the main run's structure.
// Check is deterministic, so replaying a hit is bit-identical to
// recomputing.
//
// Keys are the exact canonical encoding of (include set, constraint,
// the routing-relevant Options, traffic-matrix fingerprint, metric
// tag) — no lossy hashing, so a hit can never return the answer for a
// different set. The include set contributes its raw bitset words
// (O(L/64) to encode, no per-lookup sort). Options.LinkCost is a
// function and cannot be encoded; callers that vary the metric (e.g.
// the auction's warm-biased counterfactuals) must pass a distinct
// metric tag per LinkCost so entries never cross metrics.
//
// The cache is safe for concurrent use. It assumes the traffic
// matrices it sees are not mutated while cached (their demand shape,
// fingerprint included, is computed once per *Matrix pointer).
type FeasibilityCache struct {
	mu sync.RWMutex
	// m is the one memo table. An entry's kind is its key's leading
	// byte (kindOf): determinationKeyPrefix marks a winner
	// determination, anything else — a check key starts with
	// uvarint(Constraint) — a check verdict. entries counts the keys of
	// each kind, so Len can report checks only.
	m       map[string]cacheEntry
	entries [numKinds]int

	// Lookup tallies, indexed by entry kind.
	hits   [numKinds]atomic.Int64
	misses [numKinds]atomic.Int64
	// decompositions counts probes answered by stitching per-component
	// sub-checks (decompose.go) rather than one global routing;
	// fallbacks, by reason, the ones that asked to and were computed cold.
	decompositions atomic.Int64
	fallbacks      [numFallbacks]atomic.Int64

	// shapes holds the matrices callers probed with — never a component
	// of one: regional decomposition restricts the shape instead.
	tmMu   sync.Mutex
	shapes map[*traffic.Matrix]*shape

	netMu sync.Mutex
	netFP map[*topo.POCNetwork]uint64
}

// Entry kinds. A determination key is 0xfe ∥ varint(MaxChecks) ∥ a
// check key, behind a prefix byte no check key can start with
// (constraints are small, so 0xfe never leads a uvarint(Constraint)).
// In sorted order the check keys come first, then the determinations.
const (
	kindCheck = iota
	kindDetermination
	numKinds

	determinationKeyPrefix = "\xfe"
)

func kindOf[K string | []byte](key K) int {
	if len(key) > 0 && key[0] == determinationKeyPrefix[0] {
		return kindDetermination
	}
	return kindCheck
}

// keyBufLen sizes the stack buffer a probe builds its key in: the
// fixed fields plus the include words of up to about 1,600 links. A
// longer key spills to the heap and is otherwise the same.
const keyBufLen = 256

// cacheEntry is one memoized result. For a check, core is non-nil only
// when the set was feasible and a needCore probe computed the used-link
// union. For a determination (FeasibilityCache.Determined) sum is zero,
// core is the selection and checks the determination's check count.
// Either way the set is shared with every subsequent hit and must be
// treated as read-only.
type cacheEntry struct {
	sum    CacheSummary
	core   *linkset.Set
	checks int
}

// NewFeasibilityCache returns an empty concurrency-safe cache.
func NewFeasibilityCache() *FeasibilityCache {
	return &FeasibilityCache{
		m: make(map[string]cacheEntry, 256),
		// A cache usually sees a handful of matrices (the auction's
		// one, plus chaos reauction variants) — pre-size small.
		shapes: make(map[*traffic.Matrix]*shape, 4),
		netFP:  make(map[*topo.POCNetwork]uint64, 4),
	}
}

// CacheStats is a point-in-time snapshot of a cache's behaviour.
type CacheStats struct {
	Hits           int64
	Misses         int64
	Decompositions int64
	Entries        int
	// ShaveHits is always 0: the pass-3 shave is not memoized, since a
	// warm re-clear answers its whole determination first. The field
	// stays only because the benchmark's provision.shave_hits reads it.
	ShaveHits int64

	DeterminationHits    int64
	DeterminationMisses  int64
	DeterminationEntries int

	// Decomposition fallbacks by reason: probe misses that asked to
	// decompose and were computed cold (decompose.go states each
	// condition). Like Decompositions they count computations, so two
	// workers racing to fill one key both count.
	FallbackNoPlan       int64 // cross-component demand, or fewer than two components carry demand
	FallbackSubTolerance int64 // a demand ≤ 1e-9 under Constraint 2 or 3
	FallbackMoves        int64 // the components' move maxima sum to ≥ 512
	FallbackUnplaced     int64 // two or more components left demand unplaced
}

// Stats snapshots the counters. They live here rather than on
// CacheSummary deliberately: summaries are memoized check results that
// hits replay byte-for-byte, and a mutable counter inside them would
// make a replayed summary differ from its cold computation.
func (fc *FeasibilityCache) Stats() CacheStats {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	return CacheStats{
		Hits:           fc.hits[kindCheck].Load(),
		Misses:         fc.misses[kindCheck].Load(),
		Decompositions: fc.decompositions.Load(),
		Entries:        fc.entries[kindCheck],

		DeterminationHits:    fc.hits[kindDetermination].Load(),
		DeterminationMisses:  fc.misses[kindDetermination].Load(),
		DeterminationEntries: fc.entries[kindDetermination],

		FallbackNoPlan:       fc.fallbacks[fallbackNoPlan].Load(),
		FallbackSubTolerance: fc.fallbacks[fallbackSubTolerance].Load(),
		FallbackMoves:        fc.fallbacks[fallbackMoves].Load(),
		FallbackUnplaced:     fc.fallbacks[fallbackUnplaced].Load(),
	}
}

// Hits returns how many check lookups were answered from the cache.
func (fc *FeasibilityCache) Hits() int64 { return fc.hits[kindCheck].Load() }

// Misses returns how many check lookups fell through to a computation.
func (fc *FeasibilityCache) Misses() int64 { return fc.misses[kindCheck].Load() }

// Len returns the number of memoized check entries — the distinct
// (set, constraint, options, matrix, metric) tuples probed.
// Determination entries are not counted.
func (fc *FeasibilityCache) Len() int {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	return fc.entries[kindCheck]
}

// Check is the memoized form of Check: same answer, same determinism,
// but repeated queries for the same (set, constraint, options, matrix,
// metric) are answered without routing. metric distinguishes
// Options.LinkCost functions, which cannot be encoded into the key.
func (fc *FeasibilityCache) Check(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options, metric uint64) (bool, CacheSummary) {
	sum, _ := fc.Probe(p, include, tm, c, opts, metric, false, false)
	return sum.Feasible, sum
}

// Probe is the one memoized feasibility entry point. needCore asks for
// the union of links the constraint's routings use (nil when the set
// is infeasible; shared with the cache, read-only). decompose lets a
// miss be answered by regional decomposition (decompose.go) when the
// probe is border-separable: the answer is identical to the global
// check's, up to the internal Moves bound documented there.
func (fc *FeasibilityCache) Probe(p *topo.POCNetwork, include *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options, metric uint64, needCore, decompose bool) (CacheSummary, *linkset.Set) {
	return fc.checked(p, include, fc.shapeOf(tm), c, opts.withDefaults().resolve(p), metric, needCore, decompose)
}

// checked is the lookup-or-compute path behind every probe. opts must
// already have defaults and a workspace. When needCore is true, a
// feasible answer must carry the core link union (a coreless feasible
// entry is treated as a miss and upgraded). The key is built on the
// stack and becomes a string only when a miss stores it.
func (fc *FeasibilityCache) checked(p *topo.POCNetwork, include *linkset.Set, sh *shape, c Constraint, opts Options, metric uint64, needCore, decompose bool) (CacheSummary, *linkset.Set) {
	var kb [keyBufLen]byte
	key := fc.appendKey(kb[:0], p, include, sh, c, opts, metric)
	if e, ok := fc.peek(key, needCore); ok {
		return e.sum, e.core
	}
	var (
		sum      CacheSummary
		core     *linkset.Set
		stitched bool
	)
	if decompose {
		sum, core, stitched = fc.checkParts(p, include, sh, c, opts, metric, needCore)
	}
	if !stitched {
		// One full routing of the probe, Obs stripped: it is recorded
		// below, once per memo entry.
		cold := opts
		cold.Obs = nil
		_, core, sum = checkCore(p, include, sh, c, cold, needCore)
	}
	// Metrics are recorded per distinct memo entry (insert win), not per
	// computation: whether this goroutine or a racing one performs the
	// routing is scheduling luck, but the set of distinct keys probed is
	// Workers-invariant.
	if fc.store(key, cacheEntry{sum: sum, core: core}) {
		recordCheck(opts.Obs, c, sum)
	}
	return sum, core
}

// peek returns the entry for key if it can answer a probe of the given
// shape, counting a hit or a miss against the key's kind. A plain Check
// entry for a feasible set has no core, so it cannot answer a needCore
// probe — the caller falls through and upgrades it.
func (fc *FeasibilityCache) peek(key []byte, needCore bool) (cacheEntry, bool) {
	fc.mu.RLock()
	e, ok := fc.m[string(key)]
	fc.mu.RUnlock()
	kind := kindOf(key)
	if !ok || (needCore && e.core == nil && e.sum.Feasible) {
		fc.misses[kind].Add(1)
		return cacheEntry{}, false
	}
	fc.hits[kind].Add(1)
	return e, true
}

// store writes an entry, never replacing one that already has a set
// (two goroutines may race to fill the same key; a loaded file never
// overrides what the process computed). It reports whether the key is
// fresh for metrics purposes — exactly once per distinct key, so racing
// double-computes never double-count. The table keeps a copy of key.
func (fc *FeasibilityCache) store(key []byte, e cacheEntry) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.put(string(key), e)
}

// put is store's rule on a string key; the caller holds mu.
func (fc *FeasibilityCache) put(key string, e cacheEntry) bool {
	old, existed := fc.m[key]
	if !existed || old.core == nil {
		fc.m[key] = e
	}
	if !existed {
		fc.entries[kindOf(key)]++
	}
	return !existed
}

// Determined memoizes a whole winner determination: the auction's
// passes 1–3 from a start set to a selection. A determination is a
// deterministic function of the check-key material of its start set —
// network, matrix, constraint, feasibility options and the price metric
// (which fixes the routing costs, pass 2's removal order and the shave's)
// — plus the check budget maxChecks, which selects the variant; the key
// is 0xfe ∥ varint(maxChecks) ∥ that check key. The entry holds the
// selection and the determination's check count, which the caller's
// budget accounting (and every outcome that reports it) must see
// unchanged. On a miss, compute runs the determination; a failed one
// is returned and not stored. Hits and misses both return a set shared
// with the cache: the caller must not mutate it, nor the set compute
// returned.
func (fc *FeasibilityCache) Determined(p *topo.POCNetwork, start *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options, metric uint64, maxChecks int, compute func() (*linkset.Set, int, error)) (*linkset.Set, int, error) {
	var kb [keyBufLen]byte
	key := binary.AppendVarint(append(kb[:0], determinationKeyPrefix...), int64(maxChecks))
	key = fc.appendKey(key, p, start, fc.shapeOf(tm), c, opts.withDefaults(), metric)
	if e, ok := fc.peek(key, false); ok {
		return e.core, e.checks, nil
	}
	sel, checks, err := compute()
	if err != nil {
		return nil, 0, err
	}
	fc.store(key, cacheEntry{core: sel, checks: checks})
	return sel, checks, nil
}

// appendKey appends the canonical, collision-free cache key to buf.
// The include set's raw words go in verbatim (trailing zero words
// trimmed), so two logically equal sets — however built — share a key
// and two distinct sets never do.
func (fc *FeasibilityCache) appendKey(buf []byte, p *topo.POCNetwork, include *linkset.Set, sh *shape, c Constraint, opts Options, metric uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(c))
	buf = binary.AppendUvarint(buf, uint64(opts.MaxPaths))
	// The slot that held the routing headroom, always 0 (its uvarint is
	// one 0 byte); kept so persisted keys keep their bytes.
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(opts.FailureScenarios))
	buf = binary.AppendUvarint(buf, metric)
	buf = binary.AppendUvarint(buf, sh.fp)
	buf = binary.AppendUvarint(buf, fc.networkFP(p))
	if include == nil {
		// nil means "all links": key on the universe size.
		buf = append(buf, 0)
		return binary.AppendUvarint(buf, uint64(len(p.Links)))
	}
	buf = append(buf, 1)
	return include.AppendKey(buf)
}

// shapeOf returns tm's demand shape, computed once per pointer: a warm
// run's probes are all hits, and would otherwise pay one shape per
// winner determination's workspace just to key them.
func (fc *FeasibilityCache) shapeOf(tm *traffic.Matrix) *shape {
	fc.tmMu.Lock()
	defer fc.tmMu.Unlock()
	sh, ok := fc.shapes[tm]
	if !ok {
		sh = newShape(tm)
		fc.shapes[tm] = sh
	}
	return sh
}

// networkFP fingerprints an offer graph once per pointer (FNV-1a over
// router count and every link's identity, endpoints, owner, capacity
// and distance; see topo.LogicalLink.Mix). A cache shared across
// deployments — the fleet runner runs many topologies through one
// process-wide cache — needs the network in the key: the include-set
// words and options alone can collide between two graphs of similar
// size. Like shapeOf, it assumes cached networks are not mutated while
// cached.
func (fc *FeasibilityCache) networkFP(p *topo.POCNetwork) uint64 {
	fc.netMu.Lock()
	defer fc.netMu.Unlock()
	if fp, ok := fc.netFP[p]; ok {
		return fp
	}
	h := uint64(fnv64.Offset)
	h = fnv64.Mix(h, uint64(len(p.Routers)))
	h = fnv64.Mix(h, uint64(len(p.Links)))
	for _, l := range p.Links {
		h = l.Mix(h)
	}
	fc.netFP[p] = h
	return h
}
