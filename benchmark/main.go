// Command benchmark is the repository's one benchmark: four workloads
// over the POC pipeline, end-to-end metrics with regression bounds, and
// a traced run that attributes time to the layers. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract the driver reads.
//
//	go run ./benchmark                         all workloads, untraced
//	go run ./benchmark -trace 1                all workloads, per-layer metrics and span files
//	go run ./benchmark -workload fabric-churn -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

const resultSchema = "poc-benchmark/v1"

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Reps      int               `json:"reps"`
	Slowness  float64           `json:"machine_slowness"` // every timing below was divided by this (calibrate.go)
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Pins      map[string]string `json:"pins,omitempty"`
}

// environment is what a result must share with another before the two
// may be compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	// The journal's filesystem and its fsync cost, measured by
	// pocd-tenants; empty and 0 when that workload did not run.
	JournalFS    string  `json:"journal_fs"`
	AppendFsyncU float64 `json:"journal_append_fsync_us"`
}

type resultFile struct {
	Schema    string                    `json:"schema"`
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// expectedFile pins exact outcomes for one seed at the default sizes.
type expectedFile struct {
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"` // the pocd-tenants pins also depend on the run length
	Sizes   sizes             `json:"sizes"`
	Pins    map[string]string `json:"pins"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: flow samples, demand scale, pocd op mix")
	seconds := flag.Float64("seconds", 20, "seconds of measurement per workload")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, probes, benchmark/out/trace-<workload>.json")
	out := flag.String("out", "", "result file (default benchmark/out/result.json, result-trace.json when traced)")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	pin := flag.Bool("pin", false, "rewrite benchmark/expected.json from this run")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	var todo []workloadDecl
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	res := resultFile{
		Schema: resultSchema,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		},
		Workloads: map[string]workloadResult{},
	}
	expected, err := loadExpected(root)
	if err != nil {
		return err
	}
	if *pin {
		expected = &expectedFile{Seed: *seed, Seconds: *seconds, Sizes: defaultSizes, Pins: expected.Pins}
	}
	correct := true
	for _, w := range todo {
		h, err := newHarness(defaultSizes, *seed, *seconds, *trace == 1, root)
		if err != nil {
			return err
		}
		wr, err := runWorkload(h, w, expected, *pin)
		h.close()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if h.fsType != "" {
			res.Env.JournalFS, res.Env.AppendFsyncU = h.fsType, h.fsyncUs
		}
		res.Workloads[w.Name] = wr
		correct = correct && wr.Failed == 0
		printWorkload(w.Name, h.trace, wr)
	}

	path := *out
	if path == "" {
		name := "result.json"
		if *trace == 1 {
			name = "result-trace.json"
		}
		path = filepath.Join(root, "benchmark", "out", name)
	}
	if err := writeJSON(path, res); err != nil {
		return err
	}
	if *pin {
		if err := writeJSON(filepath.Join(root, "benchmark", "expected.json"), expected); err != nil {
			return err
		}
	}
	if !correct {
		return errors.New("correctness gates failed")
	}
	return nil
}

// runWorkload runs one workload, checks its pinned outcomes and, in a
// traced run, writes its span file.
func runWorkload(h *harness, w workloadDecl, expected *expectedFile, pin bool) (workloadResult, error) {
	if err := w.run(h); err != nil {
		return workloadResult{}, err
	}
	pinned := h.seed == expected.Seed && reflect.DeepEqual(h.sz, expected.Sizes)
	for _, k := range sortedKeys(h.pins) {
		if strings.HasPrefix(k, "pocd-tenants.") && h.seconds != expected.Seconds {
			continue
		}
		if pin {
			expected.Pins[k] = h.pins[k]
		} else if want, ok := expected.Pins[k]; ok && pinned {
			h.ok(want == h.pins[k], "%s = %s, expected.json pins %s", k, h.pins[k], want)
		}
	}
	if h.trace {
		path := filepath.Join(h.root, "benchmark", "out", "trace-"+w.Name+".json")
		if err := h.tr.writeFile(path, w.Name); err != nil {
			return workloadResult{}, err
		}
		for _, d := range perLayer {
			if _, ok := h.layer[d.Name]; !ok {
				h.setLayer(d.Name, nil) // this layer did no work on this workload
			}
		}
	}
	return workloadResult{
		Reps: h.reps, Slowness: h.slow.median(), Attempted: h.attempted, Failed: h.failed, Failures: h.failures,
		EndToEnd: h.e2e, PerLayer: h.layer, Pins: h.pins,
	}, nil
}

// printWorkload prints the metrics by name and, last, the one-line
// JSON object the driver reads: end-to-end metrics from an untraced
// run, per-layer metrics from a traced one.
func printWorkload(name string, traced bool, wr workloadResult) {
	fmt.Printf("== %s: %d repetitions, %d operations attempted, %d failed (load generator in-process, pocd over real loopback TCP)\n",
		name, wr.Reps, wr.Attempted, wr.Failed)
	fmt.Printf("   machine slowness %.3f: the timings below are what was measured divided by it\n", wr.Slowness)
	for _, f := range wr.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	show := func(decls []metricDecl, ms map[string]metric) {
		for _, d := range decls {
			if m, ok := ms[d.Name]; ok {
				fmt.Printf("   %-32s %14.6g %-8s (min %.6g, max %.6g, n=%d)\n", d.Name, m.Value, m.Unit, m.Min, m.Max, m.N)
			}
		}
	}
	show(endToEnd, wr.EndToEnd)
	reported := wr.EndToEnd
	if traced {
		show(perLayer, wr.PerLayer)
		reported = wr.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, map[string]value{}}
	for k, m := range reported {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	raw, _ := json.Marshal(line)
	fmt.Println(string(raw))
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

func loadExpected(root string) (*expectedFile, error) {
	exp := &expectedFile{Seed: 1, Seconds: 20, Sizes: defaultSizes, Pins: map[string]string{}}
	raw, err := os.ReadFile(filepath.Join(root, "benchmark", "expected.json"))
	if errors.Is(err, os.ErrNotExist) {
		return exp, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
