package fleet

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
)

// smallGrid is the 4-cell grid the package tests sweep: cheap (C1
// only), but it still exercises both traffic models, a quiet cell and
// a BP outage.
func smallGrid() GridSpec {
	return GridSpec{
		Topos:       []TopoSpec{{Name: "fig2"}},
		Traffics:    []string{"gravity", "hotspot"},
		Constraints: []provision.Constraint{provision.Constraint1},
		Chaos:       []string{"none", "bp-outage"},
		Policies:    []string{"recall"},
	}
}

func mustRun(t *testing.T, grid GridSpec, cfg Config) *Report {
	t.Helper()
	rep, err := Run(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := rep.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestExpandDedupsAndSorts(t *testing.T) {
	g := smallGrid()
	// Extra policies must not multiply the chaos="none" cells: the
	// recovery ladder never engages without faults, so the policy axis
	// collapses to "reroute" there.
	g.Policies = []string{"recall", "reroute", "reauction"}
	cells := g.Expand()
	// 2 traffics × (1 collapsed none-cell + 3 bp-outage policies) = 8.
	if len(cells) != 8 {
		t.Fatalf("expanded to %d cells, want 8: %v", len(cells), cells)
	}
	for i := 1; i < len(cells); i++ {
		if cells[i-1].Key() >= cells[i].Key() {
			t.Fatalf("cells not strictly key-sorted: %q then %q", cells[i-1].Key(), cells[i].Key())
		}
	}
	for _, c := range cells {
		if c.Chaos == "none" && c.Policy != "reroute" {
			t.Fatalf("quiet cell kept policy %q", c.Policy)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(GridSpec{}, Config{}); err == nil {
		t.Fatal("empty grid accepted")
	}
	g := smallGrid()
	if _, err := Run(g, Config{Scale: 2}); err == nil {
		t.Fatal("scale 2 accepted")
	}
	if _, err := Run(g, Config{Scale: math.NaN()}); err == nil {
		t.Fatal("scale NaN accepted")
	}
	if _, err := Run(g, Config{Epochs: -2}); err == nil {
		t.Fatal("epochs -2 accepted")
	}
}

// TestFleetResumeProperty is the crash/resume property test: for every
// prefix length k, a sweep killed after its k-th completed cell and
// then resumed must produce a merged report byte-identical to an
// uninterrupted run. The stopAfter hook simulates the kill; Workers=1
// in the interrupted phase makes the kill point exact.
func TestFleetResumeProperty(t *testing.T) {
	grid := smallGrid()
	baseline := reportBytes(t, mustRun(t, grid, Config{Workers: 2}))
	cells := grid.Expand()
	for k := 1; k < len(cells); k++ {
		dir := t.TempDir()
		_, err := Run(grid, Config{Workers: 1, StateDir: dir, stopAfter: k})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("k=%d: interrupted run returned %v, want ErrInterrupted", k, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		journaled := 0
		for _, e := range entries {
			if e.Name() != "manifest.json" && !strings.HasPrefix(e.Name(), ".tmp-") {
				journaled++
			}
		}
		if journaled != k {
			t.Fatalf("k=%d: journal holds %d cells", k, journaled)
		}
		resumed := reportBytes(t, mustRun(t, grid, Config{Workers: 4, StateDir: dir}))
		if !bytes.Equal(resumed, baseline) {
			t.Fatalf("k=%d: resumed report differs from uninterrupted run", k)
		}
	}
}

// TestResumeRejectsForeignState: a journal pinned to different sweep
// parameters (or a corrupted entry) must abort the run, not silently
// merge stale results.
func TestResumeRejectsForeignState(t *testing.T) {
	grid := smallGrid()
	dir := t.TempDir()
	if _, err := Run(grid, Config{Workers: 1, StateDir: dir, stopAfter: 1}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	if _, err := Run(grid, Config{Workers: 1, StateDir: dir, Epochs: 12}); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("foreign manifest accepted: %v", err)
	}
	// Corrupt the journaled cell: digest verification must catch it.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() == "manifest.json" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.Replace(raw, []byte(`"selected":`), []byte(`"selected":9`), 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(grid, Config{Workers: 1, StateDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("corrupted journal accepted: %v", err)
	}
}

// TestCrossCellCacheSharing proves the process-wide feasibility cache
// actually carries work across cells — and that sharing never reaches
// the report bytes.
//
// The two-cell grid differs only in the chaos axis, which runs after
// the auction and (under the reroute policy) never touches
// provisioning: both cells run exactly the same winner determinations.
// So a shared sweep must pay the misses of ONE cell and answer every
// determination of the second from the memo, without a check lookup.
func TestCrossCellCacheSharing(t *testing.T) {
	one := GridSpec{
		Topos:       []TopoSpec{{Name: "fig2"}},
		Traffics:    []string{"gravity"},
		Constraints: []provision.Constraint{provision.Constraint1},
		Chaos:       []string{"none"},
		Policies:    []string{"reroute"},
	}
	two := one
	two.Chaos = []string{"none", "bp-outage"}

	c1 := provision.NewFeasibilityCache()
	mustRun(t, one, Config{cache: c1})
	s1 := c1.Stats()
	if s1.Misses == 0 || s1.DeterminationMisses == 0 {
		t.Fatalf("single-cell sweep recorded no cache misses: %+v", s1)
	}

	// Workers=1 so the second cell starts after the first has stored
	// its entries; concurrent cells can race to the same key and both
	// miss (the counters are advisory — results never depend on them).
	c2 := provision.NewFeasibilityCache()
	sharedRep := mustRun(t, two, Config{cache: c2, Workers: 1})
	s2 := c2.Stats()
	if s2.Misses != s1.Misses || s2.Hits != s1.Hits || s2.DeterminationMisses != s1.DeterminationMisses {
		t.Fatalf("two-cell sweep looked up %d/%d checks and missed %d determinations, want the single cell's %d/%d and %d (second cell should replay from the memo)",
			s2.Hits, s2.Misses, s2.DeterminationMisses, s1.Hits, s1.Misses, s1.DeterminationMisses)
	}
	if s2.DeterminationHits != s1.DeterminationHits+s1.DeterminationMisses {
		t.Fatalf("two-cell sweep answered %d determinations from the memo, want the %d the second cell runs",
			s2.DeterminationHits-s1.DeterminationHits, s1.DeterminationMisses)
	}

	// Sharing must be invisible in the output: a cold sweep (every
	// cell provisions from scratch) yields bit-identical bytes.
	coldRep := mustRun(t, two, Config{ColdCache: true, Workers: 2})
	if !bytes.Equal(reportBytes(t, sharedRep), reportBytes(t, coldRep)) {
		t.Fatal("shared-cache report differs from cold-cache report")
	}
}

// TestGoldenGridDeterminesEachKeyOnce: a winner determination that
// one cell is computing is not computed again by another, so sweeping
// the golden grid into a fresh cache misses as many determinations at
// Workers 4, in each of three sweeps, as at Workers 1 — and every
// sweep matches the committed fleet golden.
func TestGoldenGridDeterminesEachKeyOnce(t *testing.T) {
	g, err := LoadGolden(filepath.Join("..", "..", "testdata", "fleet_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(workers int) int64 {
		t.Helper()
		c := provision.NewFeasibilityCache()
		diffs, err := g.Diff(mustRun(t, GoldenGrid(), Config{cache: c, Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffs {
			t.Errorf("workers %d: drift: %s", workers, d)
		}
		return c.Stats().DeterminationMisses
	}
	want := sweep(1)
	if want == 0 {
		t.Fatal("the golden grid missed no determination into a fresh cache")
	}
	for i := 0; i < 3; i++ {
		if got := sweep(4); got != want {
			t.Fatalf("sweep %d at Workers 4 missed %d determinations, Workers 1 missed %d", i, got, want)
		}
	}
}

// TestCacheFilePersistence: a sweep with CacheFile saves the shared
// cache after a complete sweep; a second process-fresh sweep loading
// it answers from the file (no new misses) and merges byte-identical
// reports — persistence is a pure speedup, never a result change.
func TestCacheFilePersistence(t *testing.T) {
	grid := smallGrid()
	path := filepath.Join(t.TempDir(), "fleet.pocfcache")

	c1 := provision.NewFeasibilityCache()
	cold := reportBytes(t, mustRun(t, grid, Config{cache: c1, CacheFile: path}))
	if c1.Stats().Misses == 0 {
		t.Fatal("cold sweep recorded no cache misses")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	// Fresh cache = fresh process. Workers=1 so cells can't race to
	// the same key and double-count a miss.
	c2 := provision.NewFeasibilityCache()
	warm := reportBytes(t, mustRun(t, grid, Config{cache: c2, CacheFile: path, Workers: 1}))
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm-from-file report differs from cold report")
	}
	if st := c2.Stats(); st.Misses != 0 || st.DeterminationMisses != 0 {
		t.Fatalf("warm-from-file sweep paid %d check and %d determination misses, want 0", st.Misses, st.DeterminationMisses)
	}

	// An interrupted sweep must NOT overwrite the file: the save runs
	// only after every cell completed.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(grid, Config{CacheFile: path, Workers: 1, stopAfter: 1, StateDir: t.TempDir()}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("interrupted sweep rewrote the cache file")
	}

	// CacheFile needs a shared cache to persist.
	if _, err := Run(grid, Config{CacheFile: path, ColdCache: true}); err == nil ||
		!strings.Contains(err.Error(), "ColdCache") {
		t.Fatalf("CacheFile+ColdCache accepted: %v", err)
	}
}

// TestCorpusGrid pins the GML corpus path (TopoSpec.Dir): 24 zoo
// networks written as GML and swept as a one-cell grid must merge to
// a fixed report hash. The corpus instance caps the BP count at the
// corpus size and relaxes the colocation threshold (scenario.Corpus),
// so it is a different instance from the zoo topologies'.
func TestCorpusGrid(t *testing.T) {
	dir := t.TempDir()
	w := topo.DefaultWorld()
	zoo := topo.DefaultZooConfig()
	zoo.NumNetworks = 24
	for _, n := range topo.GenerateZoo(w, zoo) {
		f, err := os.Create(filepath.Join(dir, n.Name+".gml"))
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.WriteGML(w, n, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	grid := GridSpec{
		Topos:       []TopoSpec{{Name: "corpus", Dir: dir}},
		Traffics:    []string{"gravity"},
		Constraints: []provision.Constraint{provision.Constraint1},
		Chaos:       []string{"bp-outage"},
		Policies:    []string{"recall"},
	}
	h, err := mustRun(t, grid, Config{Workers: 1}).Hash()
	if err != nil {
		t.Fatal(err)
	}
	const want = "cd4f4201254251dbcbcf8a4405df3ff7556091cd9f1c3c04dcccbe879837e3b0"
	if h != want {
		t.Fatalf("corpus report hash %s, want %s", h, want)
	}
}
