// Command zoogen emits the synthetic topology zoo as TopologyZoo-
// compatible GML files, one per network, plus a summary of the POC
// pipeline (BPs, router placement, logical links). It exists so the
// substitution for the real TopologyZoo dataset (DESIGN.md §2) can be
// inspected — and swapped for real .gml files — offline.
//
// With -synth it instead emits a continental-scale synthetic instance
// (topo.GenerateSynth): regional rings sized to an exact link count,
// for benchmarking winner determination far beyond the corpus scale.
//
// Usage:
//
//	zoogen [-out DIR] [-seed N] [-networks N] [-summary]
//	zoogen -synth [-seed N] [-links N] [-regions N] [-border N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/public-option/poc/internal/scenario"
	"github.com/public-option/poc/internal/topo"
)

func main() {
	log.SetFlags(0)
	out := flag.String("out", "", "directory to write one .gml per network (empty = skip)")
	seed := flag.Int64("seed", 0, "zoo seed (0 = default)")
	networks := flag.Int("networks", 0, "number of networks before filtering (0 = default)")
	summary := flag.Bool("summary", true, "print the POC pipeline summary")
	synth := flag.Bool("synth", false, "generate a continental synthetic instance instead of the zoo")
	links := flag.Int("links", 0, "synth: exact logical link count (0 = default)")
	regions := flag.Int("regions", 0, "synth: regional ring count (0 = default)")
	border := flag.Int("border", 0, "synth: inter-region link count (0 = border-separable)")
	flag.Parse()

	if *synth {
		cfg := topo.DefaultSynthConfig()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		if *links > 0 {
			cfg.Links = *links
			cfg.Routers = *links / 4
		}
		if *regions > 0 {
			cfg.Regions = *regions
		}
		cfg.Border = *border
		s := topo.GenerateSynth(cfg)
		fmt.Printf("synth: %s\n", s.P.Summary())
		fmt.Printf("synth: %d regions, %d border links, %d demand pairs, fingerprint %016x\n",
			cfg.Regions, len(s.Border), len(s.Demand), s.Fingerprint())
		return
	}

	w := topo.DefaultWorld()
	cfg := topo.DefaultZooConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *networks > 0 {
		cfg.NumNetworks = *networks
	}
	nets := topo.GenerateZoo(w, cfg)
	fmt.Printf("generated %d networks (seed %d, %d requested, filter <%d sites)\n",
		len(nets), cfg.Seed, cfg.NumNetworks, cfg.FilterBelow)

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, n := range nets {
			path := filepath.Join(*out, n.Name+".gml")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := topo.WriteGML(w, n, f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("wrote %d GML files to %s\n", len(nets), *out)
	}

	if *summary {
		p := topo.BuildPOCNetwork(w, nets, scenario.NumBPs, scenario.MinColo, 0)
		fmt.Printf("POC pipeline: %s\n", p.Summary())
		shares := p.BPShare()
		fmt.Println("BP link shares (paper: roughly 2%..12%):")
		for i, bp := range p.BPs {
			fmt.Printf("  %-6s %2d networks %3d sites  %5.1f%%\n",
				bp.Name, len(bp.Members), len(bp.Sites), 100*shares[i])
		}
	}
}
