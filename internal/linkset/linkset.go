// Package linkset provides a dense bitset over logical-link IDs.
//
// Logical links are numbered 0..L-1 by topo.POCNetwork, so a set of
// links packs into one machine word per 64 IDs. The auction's winner
// determination probes thousands of near-identical subsets of the
// offered links; representing each candidate as a Set makes clone,
// diff and cache-key derivation O(L/64) word operations instead of
// map churn plus a per-lookup sort.
//
// A nil *Set means "every link" wherever a set selects a subset of a
// known universe — the same convention the provisioner used for nil
// map[int]bool includes. Helpers that read sets (Contains, Len,
// Iterate, ...) treat a nil receiver as the empty set; callers that
// want nil-means-all resolve it against the universe first.
//
// Iteration order is always ascending link ID, which keeps every
// float accumulation folded over a Set deterministic (DESIGN.md §6).
package linkset

import "math/bits"

const wordBits = 64

// Set is a dense bitset of logical link IDs. The zero value is an
// empty set with no capacity; use New to size one to a universe.
type Set struct {
	words []uint64
}

// New returns an empty set sized for IDs in [0, universe).
func New(universe int) *Set {
	return &Set{words: make([]uint64, (universe+wordBits-1)/wordBits)}
}

// NewBatch returns n empty sets sized for IDs in [0, universe), all
// backed by one word allocation: a caller building one set per demand
// pair pays two allocations, not n. Each set's words are capped to its
// own share, so growing one (an Add beyond the universe) reallocates it
// alone and never writes into a neighbour.
func NewBatch(n, universe int) []Set {
	var b Batch
	return b.Take(n, universe)
}

// Batch is NewBatch's storage kept for reuse: a caller that needs a
// few sets per call, call after call, allocates only when a call takes
// more words or sets than every call before it.
type Batch struct {
	words []uint64
	sets  []Set
}

// Take returns n empty sets sized for IDs in [0, universe), laid out as
// NewBatch lays them out. They are valid until the next Take, which
// empties and hands out the same storage again.
func (b *Batch) Take(n, universe int) []Set {
	w := (universe + wordBits - 1) / wordBits
	if cap(b.words) < n*w {
		b.words = make([]uint64, n*w)
	}
	if cap(b.sets) < n {
		b.sets = make([]Set, n)
	}
	slab, sets := b.words[:n*w], b.sets[:n]
	clear(slab)
	for i := range sets {
		sets[i].words = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return sets
}

// All returns the set {0, ..., universe-1}.
func All(universe int) *Set {
	s := New(universe)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := universe % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (uint64(1) << uint(r)) - 1
	}
	return s
}

// FromMap converts a map-shaped link set (ignoring false entries).
// A nil map converts to a nil Set, preserving nil-means-all.
func FromMap(m map[int]bool, universe int) *Set {
	if m == nil {
		return nil
	}
	s := New(universe)
	for id, ok := range m {
		if ok {
			s.Add(id)
		}
	}
	return s
}

// FromIDs builds a set from explicit IDs.
func FromIDs(ids []int, universe int) *Set {
	s := New(universe)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// ToMap converts to the map shape used by public APIs. A nil set
// converts to nil.
func (s *Set) ToMap() map[int]bool {
	if s == nil {
		return nil
	}
	m := make(map[int]bool, s.Len())
	s.Iterate(func(id int) { m[id] = true })
	return m
}

// grow ensures the set can hold id.
func (s *Set) grow(id int) {
	if w := id / wordBits; w >= len(s.words) {
		words := make([]uint64, w+1)
		copy(words, s.words)
		s.words = words
	}
}

// Add inserts id into the set.
func (s *Set) Add(id int) {
	s.grow(id)
	s.words[id/wordBits] |= uint64(1) << uint(id%wordBits)
}

// Remove deletes id from the set.
func (s *Set) Remove(id int) {
	if w := id / wordBits; w < len(s.words) {
		s.words[w] &^= uint64(1) << uint(id%wordBits)
	}
}

// Contains reports whether id is in the set. A nil receiver is the
// empty set.
func (s *Set) Contains(id int) bool {
	if s == nil || id < 0 {
		return false
	}
	w := id / wordBits
	return w < len(s.words) && s.words[w]&(uint64(1)<<uint(id%wordBits)) != 0
}

// Len returns the number of IDs in the set (popcount).
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	if s == nil {
		return true
	}
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy. Cloning nil yields nil (the
// nil-means-all sentinel survives copying).
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	return &Set{words: append([]uint64(nil), s.words...)}
}

// CopyFrom makes s a copy of t (nil = the empty set), reusing s's
// words when they have room: a caller that copies into one scratch set
// over and over allocates once.
func (s *Set) CopyFrom(t *Set) {
	s.words = append(s.words[:0], t.Words()...)
}

// Union adds every member of t to s.
func (s *Set) Union(t *Set) {
	if t == nil {
		return
	}
	if len(t.words) > len(s.words) {
		s.grow(len(t.words)*wordBits - 1)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Subtract removes every member of t from s.
func (s *Set) Subtract(t *Set) {
	if s == nil || t == nil {
		return
	}
	for i, w := range t.words {
		if i >= len(s.words) {
			break
		}
		s.words[i] &^= w
	}
}

// Iterate calls fn for each member in ascending ID order.
func (s *Set) Iterate(fn func(id int)) {
	if s == nil {
		return
	}
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendIDs appends the members in ascending order to dst and
// returns the extended slice.
func (s *Set) AppendIDs(dst []int) []int {
	s.Iterate(func(id int) { dst = append(dst, id) })
	return dst
}

// AppendAnd appends the members of s ∩ t in ascending order to dst and
// returns the extended slice: one pass over the words, no membership
// test per ID.
func (s *Set) AppendAnd(dst []int, t *Set) []int {
	a, b := s.Words(), t.Words()
	for wi := range min(len(a), len(b)) {
		w := a[wi] & b[wi]
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Words exposes the backing words: read-only by convention, except
// that a decoder may fill the words of a set New just made. A nil set
// has no words.
func (s *Set) Words() []uint64 {
	if s == nil {
		return nil
	}
	return s.words
}

// AppendKey appends a canonical byte encoding of the set to dst: the
// raw bitset words, little-endian, with trailing zero words trimmed
// so logically equal sets of different capacities encode identically.
// O(L/64) with no sorting — this is the feasibility-cache key path.
func (s *Set) AppendKey(dst []byte) []byte {
	words := s.Words()
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	for _, w := range words[:n] {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}
