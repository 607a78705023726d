package netsim

import "slices"

// This file holds the struct-of-arrays flow table behind Fabric. The
// seed engine kept a map[FlowID]*Flow with a per-flow []int path; at
// million-flow populations the pointer chasing, map iteration order
// repair (sort per recompute) and per-flow slice headers dominated
// both time and allocations. The table replaces all of that with
// parallel slices indexed by a dense slot ID:
//
//   - Slots are recycled through a LIFO free list. A FlowID packs
//     (generation, slot) so a stale ID from a stopped flow can never
//     alias a recycled slot: freeing bumps the slot's generation and
//     lookups compare the ID's generation against the slot's.
//   - seq is the global admission sequence number. Seed FlowIDs were
//     sequential and never reused, so "ascending ID" was admission
//     order — and every float accumulation in the fabric (residual
//     sums, usage tallies, reroute victim ordering) depended on it.
//     With recycled slots the numeric ID no longer encodes that, so
//     seq does, and every order-sensitive path iterates by seq.
//   - Paths live in one shared []int32 arena as (offset, length)
//     spans instead of a heap slice per flow. Freed spans leave
//     garbage behind; the arena compacts when dead links outnumber
//     live ones.
//   - Classes are interned: flows store an int32 index into a small
//     classes slice instead of a 4-word Class copy per flow.
//   - order is an append-only log of (slot, generation) in admission
//     order; entries whose generation no longer matches are dead.
//     Iterating it yields live flows in exactly the order the seed's
//     sorted-map walk produced, without sorting anything.
type flowTable struct {
	// Parallel per-slot arrays. seq < 0 marks a free slot.
	src         []EndpointID
	dst         []EndpointID
	demand      []float64
	alloc       []float64
	latency     []float64
	transferred []float64
	classID     []int32
	seq         []int64
	gen         []uint32
	pathOff     []int32
	pathLen     []int32
	// degPos is the slot's position inside its source shard's
	// degraded registry, -1 when the flow is fully allocated.
	degPos []int32
	// mark is scratch for epoch-stamped set membership (bulk stop,
	// reroute victim dedupe); a slot is marked iff mark[slot] == the
	// fabric's current mark epoch.
	mark []uint32

	free    []int32
	live    int
	nextSeq int64

	classes  []Class
	classIdx map[Class]int32

	order []orderEnt
	dead  int

	arena pathArena
}

// orderEnt is one admission-log entry; it is dead once the slot's
// generation moves past gen.
type orderEnt struct {
	slot int32
	gen  uint32
}

// pathArena backs every flow's link list. data only ever grows at the
// end (tentative spans are truncated on rejection); liveLinks counts
// the links owned by live spans so compaction can size its copy
// exactly and trigger only when at least half the arena is garbage.
type pathArena struct {
	data      []int32
	liveLinks int
}

// reserve makes room for n admissions before a bulk batch. Every
// per-slot array grows once, to the slots the free list cannot
// supply, and the order log once, to n more entries: a batch that at
// least doubles the table gets exactly that, a smaller one append's
// geometric step, so a long run of small batches stays amortized
// O(1) per flow. When the order log lacks room for n entries but holds
// at least n dead ones, it is compacted in place instead of grown. The
// allocSlot and admit appends that follow then never reallocate.
func (t *flowTable) reserve(n int) {
	if need := n - len(t.free); need > 0 {
		t.src = slices.Grow(t.src, need)
		t.dst = slices.Grow(t.dst, need)
		t.demand = slices.Grow(t.demand, need)
		t.alloc = slices.Grow(t.alloc, need)
		t.latency = slices.Grow(t.latency, need)
		t.transferred = slices.Grow(t.transferred, need)
		t.classID = slices.Grow(t.classID, need)
		t.seq = slices.Grow(t.seq, need)
		t.gen = slices.Grow(t.gen, need)
		t.pathOff = slices.Grow(t.pathOff, need)
		t.pathLen = slices.Grow(t.pathLen, need)
		t.degPos = slices.Grow(t.degPos, need)
		t.mark = slices.Grow(t.mark, need)
	}
	if cap(t.order)-len(t.order) < n && t.dead >= n {
		t.dropDead()
	}
	t.order = slices.Grow(t.order, n)
}

// allocSlot returns a free slot, growing every parallel array in
// lockstep when the free list is empty.
func (t *flowTable) allocSlot() int32 {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		return s
	}
	t.src = append(t.src, 0)
	t.dst = append(t.dst, 0)
	t.demand = append(t.demand, 0)
	t.alloc = append(t.alloc, 0)
	t.latency = append(t.latency, 0)
	t.transferred = append(t.transferred, 0)
	t.classID = append(t.classID, 0)
	t.seq = append(t.seq, -1)
	t.gen = append(t.gen, 0)
	t.pathOff = append(t.pathOff, 0)
	t.pathLen = append(t.pathLen, 0)
	t.degPos = append(t.degPos, -1)
	t.mark = append(t.mark, 0)
	return int32(len(t.seq) - 1)
}

// internClass maps a Class to its dense index, registering it on
// first sight. Classes containing NaN fields never match themselves
// as map keys, so they bypass the index and get a fresh entry each
// admission — correct, just not deduplicated (the seed stored a full
// copy per flow anyway).
func (t *flowTable) internClass(c Class) int32 {
	if c.Weight == c.Weight && c.Price == c.Price {
		if id, ok := t.classIdx[c]; ok {
			return id
		}
		id := int32(len(t.classes))
		if t.classIdx == nil {
			t.classIdx = make(map[Class]int32)
		}
		t.classIdx[c] = id
		t.classes = append(t.classes, c)
		return id
	}
	t.classes = append(t.classes, c)
	return int32(len(t.classes) - 1)
}

// admit fills a slot for a newly started flow, stamps the next
// admission sequence number and appends it to the order log. The path
// span is committed separately by the caller.
func (t *flowTable) admit(src, dst EndpointID, demand float64, classID int32) int32 {
	s := t.allocSlot()
	t.src[s], t.dst[s] = src, dst
	t.demand[s] = demand
	t.alloc[s] = 0
	t.latency[s] = 0
	t.transferred[s] = 0
	t.classID[s] = classID
	t.seq[s] = t.nextSeq
	t.nextSeq++
	t.pathOff[s], t.pathLen[s] = 0, 0
	t.degPos[s] = -1
	t.order = append(t.order, orderEnt{slot: s, gen: t.gen[s]})
	t.live++
	return s
}

// release frees a slot: the generation bump invalidates both the
// flow's outstanding FlowIDs and its order-log entry. The caller must
// already have unindexed the flow and freed its path span.
func (t *flowTable) release(s int32) {
	t.seq[s] = -1
	t.gen[s]++
	t.free = append(t.free, s)
	t.live--
	t.dead++
	t.compactOrder()
}

// compactOrder rewrites the admission log without its dead entries
// once they outnumber the live ones; amortized O(1) per release.
func (t *flowTable) compactOrder() {
	if t.dead < 64 || t.dead <= t.live {
		return
	}
	t.dropDead()
}

// dropDead rewrites the admission log in place without its dead
// entries. Live entries keep their relative order.
func (t *flowTable) dropDead() {
	out := t.order[:0]
	for _, e := range t.order {
		if t.gen[e.slot] == e.gen {
			out = append(out, e)
		}
	}
	t.order = out
	t.dead = 0
}

// rangeLive visits every live flow in admission order. A log entry is
// live iff its recorded generation still matches the slot's: freeing
// bumps the generation, and a recycled slot's new entry carries the
// new generation.
func (t *flowTable) rangeLive(fn func(slot int32) bool) {
	for _, e := range t.order {
		if t.gen[e.slot] != e.gen {
			continue
		}
		if !fn(e.slot) {
			return
		}
	}
}

// path returns the slot's link span inside the arena. Valid only
// until the next arena append or compaction.
func (t *flowTable) path(s int32) []int32 {
	off, n := t.pathOff[s], t.pathLen[s]
	return t.arena.data[off : off+n]
}

// growArena makes room for k more links, at least doubling the
// arena's capacity when it is full, so a bulk batch reallocates it
// O(log n) times and allocates at most twice what it keeps.
func (t *flowTable) growArena(k int) {
	data := t.arena.data
	if len(data)+k <= cap(data) {
		return
	}
	grown := make([]int32, len(data), max(2*cap(data), len(data)+k))
	copy(grown, data)
	t.arena.data = grown
}

// commitPath binds the tentatively appended span [start, len(data))
// to the slot.
func (t *flowTable) commitPath(s int32, start int) {
	t.pathOff[s] = int32(start)
	t.pathLen[s] = int32(len(t.arena.data) - start)
	t.arena.liveLinks += int(t.pathLen[s])
}

// freePath abandons the slot's span (the data stays as garbage until
// compaction).
func (t *flowTable) freePath(s int32) {
	t.arena.liveLinks -= int(t.pathLen[s])
	t.pathLen[s] = 0
	t.pathOff[s] = 0
}

// compactArena rewrites the arena with only live spans once garbage
// outnumbers them. Must be called at a safe point: no caller may hold
// a path() slice across it.
func (t *flowTable) compactArena() {
	dead := len(t.arena.data) - t.arena.liveLinks
	if dead < 4096 || dead <= t.arena.liveLinks {
		return
	}
	data := make([]int32, 0, t.arena.liveLinks)
	t.rangeLive(func(s int32) bool {
		if n := t.pathLen[s]; n > 0 {
			off := t.pathOff[s]
			t.pathOff[s] = int32(len(data))
			data = append(data, t.arena.data[off:off+n]...)
		}
		return true
	})
	t.arena.data = data
}

const slotBits = 32

// encodeID packs (generation, slot) into a positive FlowID. The
// generation is truncated to 31 bits to keep IDs non-negative; a slot
// would need 2^31 free/reuse cycles before an ID could repeat.
func encodeID(slot int32, gen uint32) FlowID {
	return FlowID(int64(gen&0x7fffffff)<<slotBits | int64(uint32(slot)))
}

// lookup resolves a FlowID to its slot, rejecting unknown, stopped
// and stale (recycled-slot) IDs.
func (t *flowTable) lookup(id FlowID) (int32, bool) {
	if id < 0 {
		return 0, false
	}
	slot := int64(id) & (1<<slotBits - 1)
	if slot >= int64(len(t.seq)) {
		return 0, false
	}
	s := int32(slot)
	if t.seq[s] < 0 || uint32(int64(id)>>slotBits) != t.gen[s]&0x7fffffff {
		return 0, false
	}
	return s, true
}

// id rebuilds the FlowID of a live slot.
func (t *flowTable) id(s int32) FlowID {
	return encodeID(s, t.gen[s])
}
