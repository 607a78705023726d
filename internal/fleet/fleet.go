// Package fleet sweeps the scenario grid: the cross product of
// topology, traffic model, acceptability constraint, chaos schedule
// and recovery policy, each cell running the full POC pipeline (BP
// formation → auction → provisioning → fabric → chaos → billing)
// against its own observability registry.
//
// The sweep is embarrassingly parallel with one deliberate exception:
// all cells share one process-wide FeasibilityCache (identical
// feasibility questions recur across constraints and traffic models).
// It is determinism-safe under sharing — cache answers are exact
// replays of the routing they memoize, and everything
// scheduling-visible (hit counters, insert-win observations) is
// suppressed on the shared path (see auction.Instance.Cache) — so the
// merged report is byte-stable:
// identical for -workers 1 vs N, run to run, under -race, and across
// interrupt/resume.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/provision"
)

// ErrInterrupted reports a sweep that stopped before every cell
// completed. The journal, if any, holds the completed cells; a resumed
// Run finishes the rest.
var ErrInterrupted = errors.New("fleet: sweep interrupted before all cells completed")

// Config tunes one sweep. The zero value is a small, test-friendly
// sweep: scale 0.12, 8 chaos epochs, 4 failure scenarios, one worker
// per CPU, shared cache on.
type Config struct {
	// Scale in (0,1] sizes the zoo topologies exactly as
	// ScenarioOptions.Scale does (0 = 0.12, the seed-golden scale).
	Scale float64
	// Epochs is the chaos horizon per cell (0 = 8; < 0 is an error).
	Epochs int
	// FailureScenarios bounds Constraint-2 checks (0 = 4, < 0 = all pairs).
	FailureScenarios int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS). Any setting
	// yields bit-identical merged reports.
	Workers int
	// StateDir, when non-empty, enables the crash/resume journal:
	// completed cells persist there and are replayed on the next Run
	// with the same grid and parameters.
	StateDir string
	// ColdCache disables cross-cell cache sharing: every cell gets its
	// own fresh feasibility cache. The merged report must be
	// byte-identical either way — that equivalence is the test that
	// sharing never leaks scheduling into results.
	ColdCache bool
	// CacheFile, when non-empty, persists the shared feasibility cache
	// across processes: Run loads it (if present) before the sweep and
	// saves the cache back (atomically) after a complete sweep. Warm
	// starts replay memoized checks byte-for-byte, so the merged report
	// is identical with or without the file — only faster. Incompatible
	// with ColdCache (there is no shared cache to persist).
	CacheFile string

	// Test hooks, unset in production. cache, when non-nil, is the
	// shared feasibility cache in place of a fresh one, so a test can
	// read its counters after the sweep. stopAfter, when positive,
	// stops the sweep after that many fresh cell completions (cells
	// replayed from the journal don't count), simulating a crash at an
	// exact point; a stopped sweep returns ErrInterrupted.
	cache     *provision.FeasibilityCache
	stopAfter int
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.12
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	if c.FailureScenarios == 0 {
		c.FailureScenarios = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// shared is one sweep's cross-cell state: the process-wide
// feasibility cache and the per-topology bundles.
type shared struct {
	// cache is set once, in newShared; everyone else only reads the
	// field (the FeasibilityCache itself is internally synchronized).
	cache *provision.FeasibilityCache

	mu      sync.Mutex
	bundles map[string]*bundle
}

// newShared returns an empty shared state over cache, or over a fresh
// cache if cache is nil.
func newShared(cache *provision.FeasibilityCache) *shared {
	if cache == nil {
		cache = provision.NewFeasibilityCache()
	}
	return &shared{cache: cache, bundles: map[string]*bundle{}}
}

// bundleFor returns the topology's bundle, building it on first use.
// The build runs under the lock: concurrent workers needing the same
// topology wait rather than duplicating a multi-second assembly.
func (s *shared) bundleFor(ts TopoSpec, cfg Config) (*bundle, error) {
	key := fmt.Sprintf("%s|seed=%d|dir=%s|scale=%s",
		ts.Name, ts.Seed, ts.Dir, hexFloat(cfg.Scale))
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bundles[key]; ok {
		return b, nil
	}
	b, err := buildBundle(ts, cfg)
	if err != nil {
		return nil, err
	}
	s.bundles[key] = b
	return b, nil
}

// Run executes the sweep and merges the per-cell ledgers into one
// canonical report. Workers claim cells from the key-sorted list via
// an atomic cursor; results land in per-cell slots, so no ordering —
// of claims, completions, or journal replays — can reach the output.
func Run(grid GridSpec, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Scale > 0 && cfg.Scale <= 1) {
		return nil, fmt.Errorf("fleet: scale %v out of (0,1]", cfg.Scale)
	}
	if cfg.Epochs < 0 {
		return nil, fmt.Errorf("fleet: negative epochs %d", cfg.Epochs)
	}
	cells := grid.Expand()
	if len(cells) == 0 {
		return nil, errors.New("fleet: empty grid")
	}
	topos := grid.topoByName()
	for _, c := range cells {
		if _, ok := topos[c.Topo]; !ok {
			return nil, fmt.Errorf("fleet: cell %s references unknown topology %q", c.Key(), c.Topo)
		}
	}

	if cfg.CacheFile != "" && cfg.ColdCache {
		return nil, errors.New("fleet: CacheFile requires the shared cache (ColdCache set)")
	}

	shared := newShared(cfg.cache)
	if cfg.CacheFile != "" {
		if _, err := shared.cache.LoadFile(cfg.CacheFile); err != nil {
			return nil, fmt.Errorf("fleet: cache file: %w", err)
		}
	}

	results := make([]*CellResult, len(cells))
	obsDocs := make([][]byte, len(cells))
	if cfg.StateDir != "" {
		if err := openState(cfg.StateDir, cells, cfg); err != nil {
			return nil, err
		}
		if _, err := loadState(cfg.StateDir, cells, results, obsDocs); err != nil {
			return nil, err
		}
	}

	var (
		cursor  atomic.Int64
		fresh   atomic.Int64
		stopped atomic.Bool
		errOnce sync.Once
		runErr  error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		stopped.Store(true)
	}
	workers := cfg.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(cells) || stopped.Load() {
					return
				}
				if results[i] != nil {
					continue // replayed from the journal
				}
				cell := cells[i]
				b, err := shared.bundleFor(topos[cell.Topo], cfg)
				if err != nil {
					fail(err)
					return
				}
				res, doc, err := runCell(cfg, shared, b, cell)
				if err != nil {
					fail(err)
					return
				}
				results[i] = res
				obsDocs[i] = doc
				if cfg.StateDir != "" {
					if err := saveCell(cfg.StateDir, res, doc); err != nil {
						fail(err)
						return
					}
				}
				if n := fresh.Add(1); cfg.stopAfter > 0 && n >= int64(cfg.stopAfter) {
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	for _, r := range results {
		if r == nil {
			return nil, ErrInterrupted
		}
	}

	ledgerCells := make(map[string][]byte, len(cells))
	for i, r := range results {
		ledgerCells[r.Key] = obsDocs[i]
	}
	ledger, err := obs.MergeJSON(ledgerCells)
	if err != nil {
		return nil, err
	}
	if cfg.CacheFile != "" {
		if err := shared.cache.SaveFile(cfg.CacheFile); err != nil {
			return nil, fmt.Errorf("fleet: cache file: %w", err)
		}
	}
	return &Report{
		Schema:           ReportSchema,
		Scale:            hexFloat(cfg.Scale),
		Epochs:           cfg.Epochs,
		FailureScenarios: cfg.FailureScenarios,
		Cells:            len(cells),
		Results:          results,
		Ledger:           ledger,
	}, nil
}
