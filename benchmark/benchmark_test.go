package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

var updateContract = flag.Bool("update-benchmark-json", false,
	"rewrite ../BENCHMARK.json from the declarations in metrics.go instead of comparing")

// contract is BENCHMARK.json: the driver's view of this benchmark.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func declared() contract {
	// A copy without the run functions, which do not travel through JSON.
	ws := append([]workloadDecl(nil), workloads...)
	for i := range ws {
		ws[i].run = nil
	}
	return contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20,
		Workloads:  ws,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// program from drifting apart: workloads, metrics, units, directions
// and bounds are declared once in metrics.go and repeated in the file.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := declared()
	if *updateContract {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from metrics.go; rerun with -update-benchmark-json if the declarations are right\n got: %+v\nwant: %+v", got, want)
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	for _, d := range want.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

var toySizes = sizes{
	MinReps: 2, Setups: 2, ProbeK: 3,
	LeaseScale: 0.12, LeaseFlows: 5000, ChaosEpochs: 8, OutageBP: 1,
	SynthLinks: 320, WarmReruns: 2,
	FabricScale: 0.12, FabricFlows: 5000, ChurnCycles: 2, SingleFlows: 200,
	PocdScale: 0.12, PocdSetups: 1, PocdRecovers: 1, PocdSatRate: 200, PocdPacedRate: 200, PocdBatch: 4, PocdNoFsync: true, JournalProbe: 20,
}

// TestToyWorkloads runs every workload traced at toy sizes, checks that
// all correctness gates hold, and that the metric names the program
// emits are exactly the declared ones: every workload reports every
// end-to-end metric, and every per-layer metric is produced by at
// least one workload.
func TestToyWorkloads(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	for _, w := range workloads {
		h, err := newHarness(toySizes, 1, 1, true, root)
		if err != nil {
			t.Fatal(err)
		}
		err = w.run(h)
		h.close()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if h.failed > 0 || h.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, h.failed, h.attempted, h.failures)
		}
		var got, want []string
		for name, m := range h.e2e {
			got = append(got, name)
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
			}
		}
		for _, d := range endToEnd {
			want = append(want, d.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, declared %v", w.Name, got, want)
		}
		for name := range h.layer {
			produced[name] = true
		}
	}
	for _, d := range perLayer {
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produces it", d.Name)
		}
	}
}
