package provision

import (
	"encoding/binary"
	"errors"
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
// matrices it sees are not mutated while cached (their fingerprint and
// demand shape are computed once per *Matrix pointer).
type FeasibilityCache struct {
	mu sync.RWMutex
	// m is the one memo table. An entry's kind is its key's leading
	// byte (kindOf): determinationKeyPrefix marks a winner
	// determination, anything else — a check key starts with
	// uvarint(Constraint) — a check verdict. entries counts the keys of
	// each kind, so Len can report checks only.
	m       map[string]cacheEntry
	entries [numKinds]int
	// flights holds the winner determinations being computed, by key,
	// also under mu: a lookup that finds its key here waits for that
	// computation instead of running its own (Determined).
	flights map[string]*flight

	// Lookup tallies, indexed by entry kind.
	hits   [numKinds]atomic.Int64
	misses [numKinds]atomic.Int64
	// decompositions counts probes answered by stitching per-component
	// sub-checks (decompose.go) rather than one global routing;
	// fallbacks, by reason, the ones that asked to and were computed cold.
	decompositions atomic.Int64
	fallbacks      [numFallbacks]atomic.Int64

	// matrices holds the matrices callers probed with — never a
	// component of one: regional decomposition restricts the shape
	// instead.
	tmMu     sync.Mutex
	matrices map[*traffic.Matrix]*cachedMatrix

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
		m:       make(map[string]cacheEntry, 256),
		flights: make(map[string]*flight),
		// A cache usually sees a handful of matrices (the auction's
		// one, plus chaos reauction variants) — pre-size small.
		matrices: make(map[*traffic.Matrix]*cachedMatrix, 4),
		netFP:    make(map[*topo.POCNetwork]uint64, 4),
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

	// A determination lookup that waits for another goroutine's
	// computation of its key counts what a lookup after it would: a hit
	// on a result, a miss on a failure, which stores nothing. So the
	// determination tallies are the same for any interleaving.
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
	m := fc.matrixOf(tm)
	return fc.checked(p, include, m.fp, m.shape, c, opts.withDefaults().resolve(p), metric, needCore, decompose)
}

// checked is the lookup-or-compute path behind every probe of a matrix
// with fingerprint fp. opts must already have defaults and a
// workspace. When needCore is true, a feasible answer must carry the
// core link union (a coreless feasible entry is treated as a miss and
// upgraded). The key is built on the stack and becomes a string only
// when a miss stores it; only a miss asks shapeOf for the demand shape.
func (fc *FeasibilityCache) checked(p *topo.POCNetwork, include *linkset.Set, fp uint64, shapeOf func() *shape, c Constraint, opts Options, metric uint64, needCore, decompose bool) (CacheSummary, *linkset.Set) {
	var kb [keyBufLen]byte
	key := fc.appendKey(kb[:0], p, include, fp, c, opts, metric)
	if e, ok := fc.peek(key, needCore); ok {
		return e.sum, e.core
	}
	sh := shapeOf()
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

// peek returns the check entry for key if it can answer a probe of the
// given shape, counting a check hit or miss. A plain Check entry for a
// feasible set has no core, so it cannot answer a needCore probe — the
// caller falls through and upgrades it.
func (fc *FeasibilityCache) peek(key []byte, needCore bool) (cacheEntry, bool) {
	fc.mu.RLock()
	e, ok := fc.m[string(key)]
	fc.mu.RUnlock()
	if !ok || (needCore && e.core == nil && e.sum.Feasible) {
		fc.misses[kindCheck].Add(1)
		return cacheEntry{}, false
	}
	fc.hits[kindCheck].Add(1)
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
// is returned and not stored. A miss on a key another goroutine is
// computing waits for that computation and returns its result or its
// error, so concurrent runs never determine one key twice. Hits and
// misses both return a set shared with the cache: the caller must not
// mutate it, nor the set compute returned.
func (fc *FeasibilityCache) Determined(p *topo.POCNetwork, start *linkset.Set, tm *traffic.Matrix, c Constraint, opts Options, metric uint64, maxChecks int, compute func() (*linkset.Set, int, error)) (*linkset.Set, int, error) {
	var kb [keyBufLen]byte
	key := binary.AppendVarint(append(kb[:0], determinationKeyPrefix...), int64(maxChecks))
	key = fc.appendKey(key, p, start, fc.matrixOf(tm).fp, c, opts.withDefaults(), metric)
	fc.mu.Lock()
	e, ok := fc.m[string(key)]
	f, flying := fc.flights[string(key)]
	if !ok && !flying {
		f = &flight{done: make(chan struct{}), err: errAbandoned}
		fc.flights[string(key)] = f
	}
	fc.mu.Unlock()
	switch {
	case ok:
		fc.hits[kindDetermination].Add(1)
		return e.core, e.checks, nil
	case flying:
		if waitHook != nil {
			waitHook()
		}
		<-f.done
		if f.err != nil {
			fc.misses[kindDetermination].Add(1)
			return nil, 0, f.err
		}
		fc.hits[kindDetermination].Add(1)
		return f.sel, f.checks, nil
	}
	fc.misses[kindDetermination].Add(1)
	// Deferred, so that waiters are released even if compute panics:
	// they then get errAbandoned.
	defer func() {
		fc.mu.Lock()
		if f.err == nil {
			fc.put(string(key), cacheEntry{core: f.sel, checks: f.checks})
		}
		delete(fc.flights, string(key))
		fc.mu.Unlock()
		close(f.done)
	}()
	f.sel, f.checks, f.err = compute()
	if f.err != nil {
		return nil, 0, f.err
	}
	return f.sel, f.checks, nil
}

// waitHook, when non-nil, runs as a determination lookup starts to
// wait for another goroutine's computation: a test hook, so a test can
// release the computation once every lookup waits.
var waitHook func()

// flight is one winner determination being computed; done closes when
// its outcome is in.
type flight struct {
	done   chan struct{}
	sel    *linkset.Set
	checks int
	err    error
}

// errAbandoned is what the waiters of a determination get when its
// computation panicked.
var errAbandoned = errors.New("provision: a concurrent computation of this winner determination panicked")

// appendKey appends the canonical, collision-free cache key to buf.
// The include set's raw words go in verbatim (trailing zero words
// trimmed), so two logically equal sets — however built — share a key
// and two distinct sets never do.
func (fc *FeasibilityCache) appendKey(buf []byte, p *topo.POCNetwork, include *linkset.Set, fp uint64, c Constraint, opts Options, metric uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(c))
	buf = binary.AppendUvarint(buf, uint64(opts.MaxPaths))
	// The slot that held the routing headroom, always 0 (its uvarint is
	// one 0 byte); kept so persisted keys keep their bytes.
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(opts.FailureScenarios))
	buf = binary.AppendUvarint(buf, metric)
	buf = binary.AppendUvarint(buf, fp)
	buf = binary.AppendUvarint(buf, fc.networkFP(p))
	if include == nil {
		// nil means "all links": key on the universe size.
		buf = append(buf, 0)
		return binary.AppendUvarint(buf, uint64(len(p.Links)))
	}
	buf = append(buf, 1)
	return include.AppendKey(buf)
}

// cachedMatrix is what the cache knows of one matrix: the fingerprint
// every key carries, computed when the record is made, and the demand
// shape a routing needs, built on the first probe that routes. A warm
// re-clear whose lookups all hit never builds the shape.
type cachedMatrix struct {
	tm   *traffic.Matrix
	fp   uint64
	once sync.Once
	sh   *shape
}

func (m *cachedMatrix) shape() *shape {
	m.once.Do(func() { m.sh = newShape(m.tm) })
	return m.sh
}

// matrixOf returns tm's record, made once per pointer.
func (fc *FeasibilityCache) matrixOf(tm *traffic.Matrix) *cachedMatrix {
	fc.tmMu.Lock()
	defer fc.tmMu.Unlock()
	m, ok := fc.matrices[tm]
	if !ok {
		m = &cachedMatrix{tm: tm, fp: demandFP(tm)}
		fc.matrices[tm] = m
	}
	return m
}

// networkFP fingerprints an offer graph once per pointer (FNV-1a over
// router count and every link's identity, endpoints, owner, capacity
// and distance; see topo.LogicalLink.Mix). A cache shared across
// deployments — the fleet runner runs many topologies through one
// process-wide cache — needs the network in the key: the include-set
// words and options alone can collide between two graphs of similar
// size. Like matrixOf, it assumes cached networks are not mutated
// while cached.
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
