package provision

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

func TestCachePersistRoundtrip(t *testing.T) {
	p := shaveNet(10, 10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	var probes []*linkset.Set
	for i := 0; i < len(p.Links); i++ {
		probes = append(probes, linkset.FromIDs([]int{i}, len(p.Links)))
	}
	probes = append(probes, nil, linkset.New(len(p.Links))) // feasible-all and empty-infeasible

	src := NewFeasibilityCache()
	want := make([]CacheSummary, len(probes))
	wantCore := make([]*linkset.Set, len(probes))
	for i, s := range probes {
		_, want[i] = src.Check(p, s, tm, Constraint1, Options{}, 7)
		_, wantCore[i] = src.Probe(p, s, tm, Constraint1, Options{}, 7, true, false)
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Byte-stable: saving the same contents again yields the same bytes.
	var buf2 bytes.Buffer
	if err := src.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two saves of identical contents differ")
	}

	dst := NewFeasibilityCache()
	loaded, err := dst.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != src.Len() || dst.Len() != src.Len() {
		t.Fatalf("loaded %d entries, want %d (dst len %d)", loaded, src.Len(), dst.Len())
	}

	// Every probe must now hit with the identical summary and core.
	misses := dst.Misses()
	for i, s := range probes {
		_, sum := dst.Check(p, s, tm, Constraint1, Options{}, 7)
		if sum != want[i] {
			t.Fatalf("probe %d: warm summary %+v != cold %+v", i, sum, want[i])
		}
		_, core := dst.Probe(p, s, tm, Constraint1, Options{}, 7, true, false)
		if !sameCore(core, wantCore[i]) {
			t.Fatalf("probe %d: warm core mismatch", i)
		}
	}
	if dst.Misses() != misses {
		t.Fatalf("warm cache recomputed %d probes", dst.Misses()-misses)
	}
}

// TestCachePersistDeterminationMemo pins the kind-3 frames: a winner
// determination's selection and check count survive a save/load cycle
// and replay without recomputing, and the entries stay out of Len and
// Entries.
func TestCachePersistDeterminationMemo(t *testing.T) {
	p := shaveNet(10, 10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	start := linkset.All(len(p.Links))
	sel := linkset.FromIDs([]int{1, 3}, len(p.Links))

	src := NewFeasibilityCache()
	src.Check(p, start, tm, Constraint1, Options{}, 7)
	got, checks, err := src.Determined(p, start, tm, Constraint1, Options{}, 7, 40, func() (*linkset.Set, int, error) { return sel, 17, nil })
	if err != nil || !sameCore(got, sel) || checks != 17 {
		t.Fatalf("miss returned %v, %d checks, %v", got.AppendIDs(nil), checks, err)
	}
	if st := src.Stats(); st.DeterminationMisses != 1 || st.DeterminationEntries != 1 || st.Entries != 1 || src.Len() != 1 {
		t.Fatalf("stats after miss: %+v len=%d", st, src.Len())
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := src.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two saves of identical contents differ")
	}

	dst := NewFeasibilityCache()
	if loaded, err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil || loaded != 2 {
		t.Fatalf("load: n=%d err=%v", loaded, err)
	}
	warm, checks, err := dst.Determined(p, start, tm, Constraint1, Options{}, 7, 40, func() (*linkset.Set, int, error) {
		t.Fatal("warm cache recomputed the determination")
		return nil, 0, nil
	})
	if err != nil || !sameCore(warm, sel) || checks != 17 {
		t.Fatalf("warm hit returned %v, %d checks, %v", warm.AppendIDs(nil), checks, err)
	}
	if st := dst.Stats(); st.DeterminationHits != 1 || st.DeterminationMisses != 0 || st.DeterminationEntries != 1 ||
		st.Entries != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after warm hit: %+v", st)
	}
	buf2.Reset()
	if err := dst.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Load → Save did not reproduce the file")
	}

	// A failed determination is returned and not stored.
	fail := errors.New("unacceptable")
	if _, _, err := dst.Determined(p, start, tm, Constraint1, Options{}, 7, 0, func() (*linkset.Set, int, error) { return nil, 0, fail }); err != fail {
		t.Fatalf("failed determination returned %v", err)
	}
	if st := dst.Stats(); st.DeterminationEntries != 1 {
		t.Fatalf("a failed determination was stored: %+v", st)
	}
}

// TestDeterminationKeyedApart: the same start set is another
// determination under another check budget, metric tag, network or
// matrix, and a determination never answers a check of the same start
// set.
func TestDeterminationKeyedApart(t *testing.T) {
	p := shaveNet(10, 10, 10, 10)
	q := shaveNet(10, 10, 10, 20)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	tm2 := traffic.NewMatrix(2)
	tm2.Set(0, 1, 9)
	start := linkset.All(len(p.Links))
	fc := NewFeasibilityCache()
	computed := 0
	determine := func(net *topo.POCNetwork, m *traffic.Matrix, metric uint64, maxChecks int) {
		fc.Determined(net, start, m, Constraint1, Options{}, metric, maxChecks, func() (*linkset.Set, int, error) {
			computed++
			return linkset.FromIDs([]int{computed % 4}, len(p.Links)), computed, nil
		})
	}
	determine(p, tm, 7, 40)
	determine(p, tm, 7, 40)
	if computed != 1 {
		t.Fatalf("a repeated determination computed %d times", computed)
	}
	for i, vary := range []func(){
		func() { determine(p, tm, 7, 41) },
		func() { determine(p, tm, 7, -1) },
		func() { determine(p, tm, 8, 40) },
		func() { determine(q, tm, 7, 40) },
		func() { determine(p, tm2, 7, 40) },
	} {
		vary()
		if computed != i+2 {
			t.Fatalf("variant %d hit another determination's entry", i)
		}
	}
	if st := fc.Stats(); st.DeterminationEntries != 6 || st.DeterminationHits != 1 || fc.Len() != 0 {
		t.Fatalf("stats: %+v len=%d", st, fc.Len())
	}
	if _, sum := fc.Check(p, start, tm, Constraint1, Options{}, 7); !sum.Feasible || fc.Misses() != 1 {
		t.Fatal("a determination entry answered a check")
	}
}

// TestCacheLoadInsertWins: loading into a cache that already holds
// entries keeps them. A file entry fills a key the cache lacks and
// upgrades a coreless entry to a cored one, but never replaces an entry
// with a core; Load counts every frame it read either way.
func TestCacheLoadInsertWins(t *testing.T) {
	p := shaveNet(10, 10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	one := func(id int) *linkset.Set { return linkset.FromIDs([]int{id}, len(p.Links)) }
	src := NewFeasibilityCache()
	src.Probe(p, nil, tm, Constraint1, Options{}, 7, true, false) // cored
	src.Check(p, one(0), tm, Constraint1, Options{}, 7)           // coreless
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewFeasibilityCache()
	dst.Check(p, nil, tm, Constraint1, Options{}, 7)                 // coreless: the file's core upgrades it
	dst.Probe(p, one(0), tm, Constraint1, Options{}, 7, true, false) // cored: the file's coreless entry loses
	dst.Check(p, one(1), tm, Constraint1, Options{}, 7)              // not in the file
	if n, err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil || n != 2 || dst.Len() != 3 {
		t.Fatalf("load: n=%d err=%v len=%d, want 2 frames read into 3 entries", n, err, dst.Len())
	}
	misses := dst.Misses()
	dst.Probe(p, nil, tm, Constraint1, Options{}, 7, true, false)
	dst.Probe(p, one(0), tm, Constraint1, Options{}, 7, true, false)
	dst.Check(p, one(1), tm, Constraint1, Options{}, 7)
	if dst.Misses() != misses {
		t.Fatalf("%d probes missed after the load: an entry was lost or a core overwritten", dst.Misses()-misses)
	}
}

func TestCachePersistTornTail(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 4)
	src := NewFeasibilityCache()
	for i := 0; i < 3; i++ {
		src.Check(p, linkset.FromIDs([]int{i}, len(p.Links)), tm, Constraint1, Options{}, 0)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Truncating mid-frame keeps the intact prefix and reports no error.
	torn := buf.Bytes()[:buf.Len()-5]
	dst := NewFeasibilityCache()
	loaded, err := dst.Load(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 || dst.Len() != 2 {
		t.Fatalf("torn load kept %d entries, want 2", loaded)
	}

	// A corrupt byte inside a frame stops the load at that frame.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(cacheMagic)+12] ^= 0xff
	dst2 := NewFeasibilityCache()
	loaded2, err := dst2.Load(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if loaded2 != 0 {
		t.Fatalf("corrupt first frame loaded %d entries, want 0", loaded2)
	}

	// A CRC-valid frame whose word count would overflow wc*8 is corrupt
	// like any other: the load stops there and keeps the prefix.
	huge := binary.AppendUvarint(nil, 1<<61)
	entry := []byte{1, 'k', 2}                      // uvarint(len(key)) ∥ key ∥ flags: has-core
	entry = append(entry, make([]byte, 8+8+1+1)...) // Unplaced, MaxUtilization, Paths, Moves
	entry = append(entry, huge...)
	determination := append([]byte{2, determinationKeyPrefix[0], 'k', 3}, huge...) // ∥ checks ∥ words
	// A frame whose kind contradicts its key's leading byte is corrupt too.
	crossed := append([]byte{1, 'k'}, 0)                         // check key, zero words
	crossedWD := []byte{2, determinationKeyPrefix[0], 'k', 3, 0} // determination key, 3 checks, zero words
	// A well-formed frame of the retired kind 2 ends the load like one.
	// Read as a check entry its payload would parse (flags 3, no core
	// words), so only the frame kind stops it.
	retired := appendWords([]byte{2, 0xff, 'k'}, []uint64{1, 1, 0}) // shave key, three words
	for _, f := range []struct {
		kind    byte
		payload []byte
	}{
		{cacheFrameKind[kindCheck], entry}, {cacheFrameKind[kindDetermination], determination},
		{2, retired}, {cacheFrameKind[kindDetermination], retired},
		{cacheFrameKind[kindDetermination], crossed}, {cacheFrameKind[kindCheck], crossedWD},
	} {
		data := appendFrame(append([]byte(nil), buf.Bytes()...), f.kind, f.payload)
		dst3 := NewFeasibilityCache()
		loaded3, err := dst3.Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if loaded3 != 3 || dst3.Len() != 3 {
			t.Fatalf("kind %d frame %x: loaded %d entries, want the 3 before it", f.kind, f.payload, loaded3)
		}
	}

	// Wrong magic is a hard error.
	if _, err := dst2.Load(bytes.NewReader([]byte("not a cache file at all"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// appendFrame appends one cache-file frame of the given kind around
// payload, CRC included.
func appendFrame(data []byte, kind byte, payload []byte) []byte {
	data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
	data = append(data, kind)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
	return append(data, payload...)
}

// appendRetiredShave appends a frame of the retired kind 2, the one
// testdata/pocfcache_v1.bin ended with while the kind existed: link 0,
// the pass-3 shave of all links of the fixture network under metric 7,
// keyed 0xff ∥ check key.
func appendRetiredShave(data []byte) []byte {
	p := shaveNet(10, 10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	fc := NewFeasibilityCache()
	key := fc.appendKey([]byte{0xff}, p, linkset.All(len(p.Links)), fc.shapeOf(tm), Constraint1, Options{}.withDefaults(), 7)
	payload := append(binary.AppendUvarint(nil, uint64(len(key))), key...)
	return appendFrame(data, 2, appendWords(payload, []uint64{1}))
}

// FuzzCacheLoad feeds Load arbitrary bytes, seeded with a real save
// holding every entry shape (coreless check, check with core,
// determination), and with that save followed by a frame of the
// retired kind 2, where a load must stop: it must not panic, cannot
// load more entries than the input has whole frames, and whatever it
// loaded must answer like the saved cache.
func FuzzCacheLoad(f *testing.F) {
	p := shaveNet(10, 10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	probes := []*linkset.Set{nil, linkset.New(len(p.Links))}
	for i := range p.Links {
		probes = append(probes, linkset.FromIDs([]int{i}, len(p.Links)))
	}
	start := linkset.All(len(p.Links))

	src := NewFeasibilityCache()
	want := make([]CacheSummary, len(probes))
	wantCore := make([]*linkset.Set, len(probes))
	for i, s := range probes {
		_, want[i] = src.Check(p, s, tm, Constraint1, Options{}, 7)
		if i%2 == 0 {
			src.Probe(p, s, tm, Constraint1, Options{}, 7, true, false)
		}
	}
	selected := linkset.FromIDs([]int{0, 2}, len(p.Links))
	determined := func() (*linkset.Set, int, error) { return selected, 9, nil }
	src.Determined(p, start, tm, Constraint1, Options{}, 7, 40, determined)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		f.Fatal(err)
	}
	for i, s := range probes {
		_, wantCore[i] = src.Probe(p, s, tm, Constraint1, Options{}, 7, true, false)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(appendRetiredShave(bytes.Clone(buf.Bytes())))
	f.Add([]byte(cacheMagic))
	// The committed fixture probes the same network, matrix and metric
	// (plus a Constraint2 and a decomposed entry), so its entries must
	// answer like src's too.
	if fixture, err := os.ReadFile("testdata/pocfcache_v1.bin"); err != nil {
		f.Fatal(err)
	} else {
		f.Add(fixture)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fc := NewFeasibilityCache()
		n, err := fc.Load(bytes.NewReader(data))
		if err != nil {
			if n != 0 {
				t.Fatalf("load failed with %v after counting %d entries", err, n)
			}
			return
		}
		frames := 0
		for rest := data[len(cacheMagic):]; len(rest) >= 9; frames++ {
			size := int(binary.LittleEndian.Uint32(rest))
			if size > len(rest)-9 {
				break
			}
			rest = rest[9+size:]
		}
		if n > frames {
			t.Fatalf("loaded %d entries from %d whole frames", n, frames)
		}
		for i, s := range probes {
			if _, sum := fc.Check(p, s, tm, Constraint1, Options{}, 7); sum != want[i] {
				t.Fatalf("probe %d: summary %+v after load, saved cache says %+v", i, sum, want[i])
			}
			if _, core := fc.Probe(p, s, tm, Constraint1, Options{}, 7, true, false); !sameCore(core, wantCore[i]) {
				t.Fatalf("probe %d: core differs from the saved cache's", i)
			}
		}
		if got, checks, _ := fc.Determined(p, start, tm, Constraint1, Options{}, 7, 40, determined); !sameCore(got, selected) || checks != 9 {
			t.Fatalf("determination %v with %d checks after load, saved cache says %v with 9", got.AppendIDs(nil), checks, selected.AppendIDs(nil))
		}
	})
}

// fixtureCache replays the probes that produced
// testdata/pocfcache_v1.bin — Save's bytes since the memo became one
// table, less the one frame of the retired kind 2 the file then ended
// with — and returns the cache plus a function that repeats every probe
// against another cache and fails on any miss.
func fixtureCache(t testing.TB) (*FeasibilityCache, func(*FeasibilityCache)) {
	p := shaveNet(10, 10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	rng := rand.New(rand.NewSource(3))
	ps := splitNet(rng, 10, 10, 5)
	tms := traffic.NewMatrix(len(ps.Routers))
	sideTM(rng, tms, 0, 10, 4, 6)
	sideTM(rng, tms, 10, 10, 4, 6)
	replay := func(fc *FeasibilityCache) {
		for i := range p.Links {
			fc.Check(p, linkset.FromIDs([]int{i}, len(p.Links)), tm, Constraint1, Options{}, 7)
		}
		fc.Check(p, linkset.New(len(p.Links)), tm, Constraint1, Options{}, 7)
		fc.Probe(p, nil, tm, Constraint1, Options{}, 7, true, false)
		fc.Probe(p, linkset.FromIDs([]int{0, 1}, len(p.Links)), tm, Constraint2, Options{FailureScenarios: 4}, 7, true, false)
		fc.Probe(ps, nil, tms, Constraint1, Options{}, 9, false, true)
	}
	fc := NewFeasibilityCache()
	replay(fc)
	if st := fc.Stats(); st.Decompositions != 1 || st.Entries != 10 {
		t.Fatalf("fixture cache shape: %+v", st)
	}
	return fc, func(warm *FeasibilityCache) {
		before := warm.Stats()
		replay(warm)
		after := warm.Stats()
		if after.Misses != before.Misses || after.Decompositions != before.Decompositions {
			t.Fatalf("fixture probes missed on a warm cache: %+v -> %+v", before, after)
		}
	}
}

// TestCachePersistFixture pins the pocfcache/v1 bytes across the
// one-table refactor: the committed file holds every check entry shape
// (coreless checks, cores, a decomposed probe with its two component
// entries). The same probes must Save to the same bytes, Load → Save
// must reproduce the file, and the loaded cache must answer every probe
// without computing. Written while frame kind 2 existed, the file ended
// in one shave frame (appendRetiredShave): with that tail it loads as
// the same 10 entries, and saves as the fixture.
func TestCachePersistFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/pocfcache_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	fresh, replay := fixtureCache(t)
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Save of the fixture probes wrote %d bytes that differ from testdata/pocfcache_v1.bin (%d bytes)", buf.Len(), len(want))
	}

	for _, file := range []struct {
		name string
		data []byte
	}{{"the fixture", want}, {"the fixture with a kind-2 tail", appendRetiredShave(bytes.Clone(want))}} {
		warm := NewFeasibilityCache()
		n, err := warm.Load(bytes.NewReader(file.data))
		if err != nil || n != 10 {
			t.Fatalf("load of %s: n=%d err=%v, want 10 entries", file.name, n, err)
		}
		if st := warm.Stats(); st.Entries != 10 || st.DeterminationEntries != 0 || warm.Len() != 10 {
			t.Fatalf("loaded shape of %s: %+v len=%d", file.name, st, warm.Len())
		}
		buf.Reset()
		if err := warm.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Load → Save of %s did not write testdata/pocfcache_v1.bin", file.name)
		}
		replay(warm)
	}
}

func TestCachePersistFileMissing(t *testing.T) {
	fc := NewFeasibilityCache()
	n, err := fc.LoadFile(t.TempDir() + "/nope.pocfcache")
	if n != 0 || err != nil {
		t.Fatalf("missing file: n=%d err=%v, want 0,nil", n, err)
	}
	// And the file round-trip works.
	p := shaveNet(10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 4)
	fc.Check(p, nil, tm, Constraint1, Options{}, 0)
	path := t.TempDir() + "/c.pocfcache"
	if err := fc.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	warm := NewFeasibilityCache()
	if n, err := warm.LoadFile(path); err != nil || n != 1 {
		t.Fatalf("file roundtrip: n=%d err=%v", n, err)
	}
}

// TestCacheSaveFileConcurrent: two saves to one path that overlap must
// both succeed and leave exactly one of the two images behind, with no
// temp file. A temp name shared between saves lets one save's rename
// steal the other's file, or truncate it mid-write.
func TestCacheSaveFileConcurrent(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 4)
	a, b := NewFeasibilityCache(), NewFeasibilityCache()
	a.Check(p, nil, tm, Constraint1, Options{}, 0)
	for i := range p.Links {
		b.Check(p, linkset.FromIDs([]int{i}, len(p.Links)), tm, Constraint1, Options{}, 0)
	}
	var imgA, imgB bytes.Buffer
	if err := a.Save(&imgA); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&imgB); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "c.pocfcache")
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, fc := range []*FeasibilityCache{a, b} {
			wg.Add(1)
			go func(i int, fc *FeasibilityCache) {
				defer wg.Done()
				errs[i] = fc.SaveFile(path)
			}(i, fc)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, imgA.Bytes()) && !bytes.Equal(got, imgB.Bytes()) {
			t.Fatalf("round %d: file (%d bytes) matches neither image", round, len(got))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("round %d: %d files left in the directory, want only the cache", round, len(entries))
		}
	}
}
