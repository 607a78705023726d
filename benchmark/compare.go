package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// spread is a metric's run-internal spread as a share of its median:
// the interquartile distance when there are samples enough to have
// quartiles, else the full range.
func spread(m metric) float64 {
	if m.Value == 0 || m.N < 2 {
		return 0
	}
	if len(m.Samples) >= 4 {
		s := samples(m.Samples)
		return (s.quantile(0.75) - s.quantile(0.25)) / m.Value
	}
	return (m.Max - m.Min) / m.Value
}

// verdict judges B against A for one end-to-end metric: "regressed"
// when B's median is worse by more than the bound; "unresolved" when
// either side's own spread is wider than the bound, unless every
// sample of B is better than every sample of A; else "ok".
func verdict(d metricDecl, a, b metric) (worse float64, v string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	worse = (b.Value - a.Value) / a.Value
	allBetter := b.Max < a.Min
	if d.Better == "higher" {
		worse = -worse
		allBetter = b.Min > a.Max
	}
	switch {
	case (spread(a) > d.Bound || spread(b) > d.Bound) && !allBetter:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the relative worsening of B, the bound and the verdict. It
// fails when the files come from unlike runs or anything regressed.
func compareFiles(pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	ea, eb := a.Env, b.Env
	fmt.Printf("A: %s  nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g journal=%s fsync=%.0fus\n",
		pathA, ea.NProc, ea.GOMAXPROCS, ea.Go, ea.Seed, ea.Seconds, ea.JournalFS, ea.AppendFsyncU)
	fmt.Printf("B: %s  nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g journal=%s fsync=%.0fus\n",
		pathB, eb.NProc, eb.GOMAXPROCS, eb.Go, eb.Seed, eb.Seconds, eb.JournalFS, eb.AppendFsyncU)
	if ea.NProc != eb.NProc || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.Go != eb.Go ||
		ea.Seed != eb.Seed || ea.Seconds != eb.Seconds || ea.JournalFS != eb.JournalFS {
		return errors.New("the two results come from unlike runs (machine, Go version, seed, run length or journal filesystem differ)")
	}

	regressed := 0
	for _, w := range workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			continue
		}
		fmt.Printf("== %s (reps %d vs %d, failed %d vs %d)\n", w.Name, wa.Reps, wb.Reps, wa.Failed, wb.Failed)
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse, v := verdict(d, ma, mb)
			if wb.Failed > wa.Failed {
				v = "regressed"
			}
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("   %-10s %12.6g -> %12.6g %-4s worse by %+6.1f%%  bound %4.0f%%  %s\n",
				d.Name, ma.Value, mb.Value, d.Unit, 100*worse, 100*d.Bound, v)
		}
		for _, k := range sortedKeys(wa.Pins) {
			if vb, ok := wb.Pins[k]; ok && wa.Pins[k] != vb {
				fmt.Printf("   exact outcome %s differs: %s vs %s\n", k, wa.Pins[k], vb)
				regressed++
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
