// Command pocfleet sweeps the scenario grid — topology × traffic
// model × constraint × chaos schedule × recovery policy — across a
// bounded worker pool and merges the per-cell ledgers into one
// canonical, byte-stable report.
//
// Usage:
//
//	pocfleet                          # 12-cell golden grid, FLEET.json
//	pocfleet -grid default -workers 8 # 24-cell standing sweep
//	pocfleet -corpus zoo/             # real GML corpus as the topology
//	pocfleet -state run1/             # journal cells; rerun to resume
//	pocfleet -cachefile fc.pocfcache  # persist the feasibility cache across runs
//	pocfleet -golden testdata/fleet_golden.json  # CI drift gate
//
// The merged report is byte-identical for any -workers value, across
// reruns, and across interrupt/resume — pocfleet -hash prints just the
// report digest so CI can compare cheaply.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/public-option/poc/internal/fleet"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		gridName = flag.String("grid", "golden", "grid to sweep: golden (12 cells) or default (24 cells)")
		corpus   = flag.String("corpus", "", "directory of .gml files; replaces the grid's topology axis with the real corpus")
		scale    = flag.Float64("scale", 0, "zoo topology scale in (0,1] (0 = 0.12, the golden scale)")
		epochs   = flag.Int("epochs", 0, "chaos horizon per cell (0 = 8)")
		failures = flag.Int("failures", 0, "failure scenarios per feasibility check (0 = 4, negative = every demand pair)")
		workers  = flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS); any value yields identical bytes")
		state    = flag.String("state", "", "crash/resume journal directory (empty = no journal)")
		cold     = flag.Bool("cold", false, "disable cross-cell cache sharing (bytes must not change)")
		cacheFn  = flag.String("cachefile", "", "persist the shared feasibility cache here across runs (bytes must not change)")
		out      = flag.String("out", "FLEET.json", "report path ('-' = stdout)")
		hashOnly = flag.Bool("hash", false, "print only the report sha256")
		golden   = flag.String("golden", "", "compare against a pinned fixture; exit nonzero naming each drifted cell")
		update   = flag.Bool("update-golden", false, "with -golden: rewrite the fixture from this run instead of comparing")
	)
	flag.Parse()
	if *update && *golden == "" {
		return fmt.Errorf("-update-golden needs -golden: name the fixture to rewrite")
	}

	var grid fleet.GridSpec
	switch *gridName {
	case "golden":
		grid = fleet.GoldenGrid()
	case "default":
		grid = fleet.DefaultGrid()
	default:
		return fmt.Errorf("unknown -grid %q (want golden or default)", *gridName)
	}
	if *corpus != "" {
		grid.Topos = []fleet.TopoSpec{{Name: "corpus", Dir: *corpus}}
	}

	rep, err := fleet.Run(grid, fleet.Config{
		Scale:            *scale,
		Epochs:           *epochs,
		FailureScenarios: *failures,
		Workers:          *workers,
		StateDir:         *state,
		ColdCache:        *cold,
		CacheFile:        *cacheFn,
	})
	if err != nil {
		return err
	}

	if *golden != "" {
		if *update {
			g, err := rep.Golden(*gridName)
			if err != nil {
				return err
			}
			if err := g.WriteFile(*golden); err != nil {
				return err
			}
			fmt.Printf("updated %s (%d cells)\n", *golden, len(g.Cells))
			return nil
		}
		g, err := fleet.LoadGolden(*golden)
		if err != nil {
			return err
		}
		diffs, err := g.Diff(rep)
		if err != nil {
			return err
		}
		if len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintln(os.Stderr, "DRIFT:", d)
			}
			return fmt.Errorf("%d divergence(s) from %s", len(diffs), *golden)
		}
		fmt.Printf("ok: %d cells match %s\n", len(g.Cells), *golden)
		return nil
	}

	if *hashOnly {
		h, err := rep.Hash()
		if err != nil {
			return err
		}
		fmt.Println(h)
		return nil
	}

	blob, err := rep.Bytes()
	if err != nil {
		return err
	}
	if *out == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	h, err := rep.Hash()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, sha256 %s)\n", *out, rep.Cells, h)
	return nil
}
