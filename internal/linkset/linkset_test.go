package linkset

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestMapRoundTrip is the migration property test: any map[int]bool
// round-trips through FromMap/ToMap unchanged, and membership agrees
// ID by ID. Seeded PRNG per DESIGN.md §6.
func TestMapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(300)
		m := map[int]bool{}
		for i := 0; i < rng.Intn(universe+1); i++ {
			m[rng.Intn(universe)] = true
		}
		s := FromMap(m, universe)
		if got := s.ToMap(); !reflect.DeepEqual(got, m) {
			t.Fatalf("trial %d: round trip %v != %v", trial, got, m)
		}
		if s.Len() != len(m) {
			t.Fatalf("trial %d: Len %d != %d", trial, s.Len(), len(m))
		}
		for id := 0; id < universe; id++ {
			if s.Contains(id) != m[id] {
				t.Fatalf("trial %d: Contains(%d)=%v map=%v", trial, id, s.Contains(id), m[id])
			}
		}
	}
	if FromMap(nil, 10) != nil {
		t.Fatal("FromMap(nil) must preserve the nil-means-all sentinel")
	}
	if (*Set)(nil).ToMap() != nil {
		t.Fatal("nil.ToMap() must be nil")
	}
}

// TestIterateOrder pins ascending-ID iteration — the determinism
// contract every float fold over a Set relies on.
func TestIterateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		universe := 1 + rng.Intn(500)
		s := New(universe)
		want := map[int]bool{}
		for i := 0; i < rng.Intn(universe+1); i++ {
			id := rng.Intn(universe)
			s.Add(id)
			want[id] = true
		}
		var ids []int
		s.Iterate(func(id int) { ids = append(ids, id) })
		if !sort.IntsAreSorted(ids) {
			t.Fatalf("trial %d: iterate order not ascending: %v", trial, ids)
		}
		if len(ids) != len(want) {
			t.Fatalf("trial %d: iterated %d ids, want %d", trial, len(ids), len(want))
		}
		for _, id := range ids {
			if !want[id] {
				t.Fatalf("trial %d: iterated stray id %d", trial, id)
			}
		}
		if got := s.AppendIDs(nil); !reflect.DeepEqual(got, ids) {
			t.Fatalf("trial %d: AppendIDs %v != Iterate %v", trial, got, ids)
		}
	}
}

// TestKeyStability: logically equal sets — however they were built,
// whatever their capacity — must produce identical keys, and unequal
// sets must not collide on the same universe.
func TestKeyStability(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(400)
		var ids []int
		for i := 0; i < rng.Intn(universe+1); i++ {
			ids = append(ids, rng.Intn(universe))
		}
		a := FromIDs(ids, universe)
		// Same members, different construction order and capacity.
		b := New(universe + 64*rng.Intn(4))
		for i := len(ids) - 1; i >= 0; i-- {
			b.Add(ids[i])
		}
		ka := a.AppendKey(nil)
		kb := b.AppendKey(nil)
		if !bytes.Equal(ka, kb) {
			t.Fatalf("trial %d: equal sets, different keys %x vs %x", trial, ka, kb)
		}
		if len(ids) > 0 {
			c := a.Clone()
			c.Remove(ids[0])
			if a.Contains(ids[0]) && bytes.Equal(a.AppendKey(nil), c.AppendKey(nil)) {
				t.Fatalf("trial %d: distinct sets share a key", trial)
			}
		}
	}
	// Add-then-remove leaves trailing zero words; key must not change.
	s := FromIDs([]int{1, 2, 3}, 4)
	u := FromIDs([]int{1, 2, 3}, 4)
	u.Add(1000)
	u.Remove(1000)
	if !bytes.Equal(s.AppendKey(nil), u.AppendKey(nil)) {
		t.Fatal("trailing zero words changed the key")
	}
}

func TestSetOps(t *testing.T) {
	a := FromIDs([]int{0, 5, 63, 64, 200}, 256)
	b := FromIDs([]int{5, 64, 128}, 256)
	u := a.Clone()
	u.Union(b)
	if got := u.AppendIDs(nil); !reflect.DeepEqual(got, []int{0, 5, 63, 64, 128, 200}) {
		t.Fatalf("union = %v", got)
	}
	d := a.Clone()
	d.Subtract(b)
	if got := d.AppendIDs(nil); !reflect.DeepEqual(got, []int{0, 63, 200}) {
		t.Fatalf("subtract = %v", got)
	}
	if a.Len() != 5 || a.Empty() {
		t.Fatalf("len/empty wrong: %d %v", a.Len(), a.Empty())
	}
	if !New(10).Empty() || !(*Set)(nil).Empty() {
		t.Fatal("empty sets not empty")
	}
	all := All(130)
	if all.Len() != 130 || !all.Contains(129) || all.Contains(130) {
		t.Fatalf("All(130) wrong: len=%d", all.Len())
	}
	if (*Set)(nil).Clone() != nil {
		t.Fatal("nil.Clone() must stay nil")
	}
	// Union growing the receiver.
	g := FromIDs([]int{1}, 2)
	g.Union(FromIDs([]int{700}, 701))
	if !g.Contains(1) || !g.Contains(700) {
		t.Fatal("union did not grow receiver")
	}
}

// TestNewBatch: batch sets behave like New's, are independent of each
// other, come from one word allocation, and a set that grows past the
// universe leaves its neighbours untouched.
func TestNewBatch(t *testing.T) {
	const n, universe = 5, 130
	sets := NewBatch(n, universe)
	if len(sets) != n {
		t.Fatalf("NewBatch(%d) returned %d sets", n, len(sets))
	}
	for i := range sets {
		if !sets[i].Empty() || len(sets[i].Words()) != len(New(universe).Words()) {
			t.Fatalf("set %d: not an empty set sized like New(%d)", i, universe)
		}
		sets[i].Add(i)
		sets[i].Add(universe - 1 - i)
	}
	for i := range sets {
		want := FromIDs([]int{i, universe - 1 - i}, universe)
		if !reflect.DeepEqual(sets[i].AppendIDs(nil), want.AppendIDs(nil)) {
			t.Fatalf("set %d = %v, want %v", i, sets[i].AppendIDs(nil), want.AppendIDs(nil))
		}
	}
	sets[1].Add(1000) // beyond the universe: reallocates set 1 alone
	if !sets[1].Contains(1000) || !sets[1].Contains(1) {
		t.Fatal("grown set lost members")
	}
	if got := sets[2].AppendIDs(nil); !reflect.DeepEqual(got, []int{2, universe - 3}) {
		t.Fatalf("growing set 1 changed set 2: %v", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { NewBatch(64, 1000) }); allocs != 2 {
		t.Fatalf("NewBatch allocates %v objects, want 2", allocs)
	}
}

// TestBatchTake: a Batch hands out the sets NewBatch would, empty on
// every Take whatever the last caller wrote or grew, and a Take no
// larger than an earlier one allocates nothing.
func TestBatchTake(t *testing.T) {
	const universe = 130
	var b Batch
	sets := b.Take(4, universe)
	for i := range sets {
		sets[i].Add(i)
		sets[i].Add(universe - 1)
	}
	sets[0].Add(1000) // beyond the universe: set 0 leaves the batch's words
	for _, n := range []int{4, 3} {
		sets = b.Take(n, universe)
		if len(sets) != n {
			t.Fatalf("Take(%d) returned %d sets", n, len(sets))
		}
		for i := range sets {
			if !sets[i].Empty() || len(sets[i].Words()) != len(New(universe).Words()) {
				t.Fatalf("Take(%d): set %d is not an empty set sized like New(%d)", n, i, universe)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { b.Take(4, universe) }); allocs != 0 {
		t.Fatalf("a warm Take allocates %v objects, want 0", allocs)
	}
}

// TestAppendAnd: AppendAnd lists, in ascending order after what dst
// held, exactly the IDs both sets contain — for sets of different
// capacities and for nil.
func TestAppendAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 200; trial++ {
		a, b := New(1+rng.Intn(300)), New(1+rng.Intn(300))
		for i := 0; i < 100; i++ {
			a.Add(rng.Intn(300))
			b.Add(rng.Intn(300))
		}
		want := []int{-1}
		for id := 0; id < 300; id++ {
			if a.Contains(id) && b.Contains(id) {
				want = append(want, id)
			}
		}
		if got := a.AppendAnd([]int{-1}, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %v, want %v", trial, got, want)
		}
		if got := a.AppendAnd(nil, nil); got != nil {
			t.Fatalf("trial %d: intersection with nil is %v", trial, got)
		}
	}
}
