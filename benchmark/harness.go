package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/public-option/poc/internal/stats"
)

// span is one timed call the harness made into a layer. Times are
// microseconds since the run started; Parent is the ID of the span
// that was open when this one began (-1 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Rep    int     `json:"rep"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. begin/end nest on
// the harness goroutine; leaf is for the pocd client goroutines, which
// record finished ops under an explicit parent.
type tracer struct {
	mu    sync.Mutex
	on    bool // flipped per repetition: traced runs alternate traced and untraced repetitions
	t0    time.Time
	rep   int
	spans []span
	stack []int
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: t.rep, Start: t.us(time.Now())})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.us(now)
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) leaf(parent int, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Rep: t.rep, Start: t.us(start), End: t.us(end)})
}

// durations returns every recorded duration of the named span, in
// seconds.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End-s.Start)/1e6)
		}
	}
	return out
}

// stageSummary is the per-name roll-up written beside the raw spans:
// self time is a span's duration minus the part its children cover.
type stageSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summary() []stageSummary {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*stageSummary{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &stageSummary{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMs += d / 1e3
		// pocd client ops overlap under one phase span, so children can
		// cover more than the parent's wall time; self time floors at 0.
		st.SelfMs += math.Max(0, d-child[i]) / 1e3
	}
	out := make([]stageSummary, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (t *tracer) writeFile(path, workload string) error {
	doc := struct {
		Workload string         `json:"workload"`
		Stages   []stageSummary `json:"stages"`
		Spans    []span         `json:"spans"`
	}{workload, t.summary(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// samples is one metric's measurements within a run.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the linearly interpolated q-quantile; 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return stats.Quantile(s, q)
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) scale(f float64) samples {
	out := make(samples, len(s))
	for i, v := range s {
		out[i] = v * f
	}
	return out
}

// metric is one reported number: the median of its samples, with the
// extremes and the sample count kept so -compare can judge spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// harness carries one workload run: its inputs, its tracer, the
// operation tally and the metrics it has produced.
type harness struct {
	sz      sizes
	seed    int64
	seconds float64
	trace   bool
	root    string // repository root (holds go.mod)
	tmp     string // scratch directory under benchmark/out, removed when the run ends
	tr      *tracer

	attempted int
	failed    int
	failures  []string

	setup   samples
	reps    int
	e2e     map[string]metric
	layer   map[string]metric
	pins    map[string]string // exact outcomes compared with expected.json at the default seed and sizes
	fsType  string
	fsyncUs float64

	slow    samples // machine slowness, one sample per calibration round
	lastCal time.Time
}

func newHarness(sz sizes, seed int64, seconds float64, trace bool, root string) (*harness, error) {
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	return &harness{
		sz: sz, seed: seed, seconds: seconds, trace: trace, root: root, tmp: tmp,
		tr:  &tracer{t0: time.Now()},
		e2e: map[string]metric{}, layer: map[string]metric{}, pins: map[string]string{},
	}, nil
}

func (h *harness) close() { os.RemoveAll(h.tmp) }

// ok counts one attempted operation; a false outcome is a failure and
// keeps its description for the report.
func (h *harness) ok(cond bool, format string, args ...any) bool {
	h.attempted++
	if !cond {
		h.fail(format, args...)
	}
	return cond
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.failures) < 20 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// admitted books a bulk admission of n flows, each one operation, of
// which got were admitted.
func (h *harness) admitted(got, n int) {
	h.attempted += n
	if got != n {
		h.failed += n - got
		h.failures = append(h.failures, fmt.Sprintf("StartFlows admitted %d of %d", got, n))
	}
}

// must is ok for calls that return an error.
func (h *harness) must(err error, what string) bool {
	return h.ok(err == nil, "%s: %v", what, err)
}

// call times fn and, in a traced repetition, records it as a span.
func (h *harness) call(name string, fn func()) float64 {
	id := h.tr.begin(name)
	t := time.Now()
	fn()
	d := time.Since(t)
	h.tr.end(id)
	return d.Seconds()
}

// beginSetup opens the set-up stage; a traced run records its spans.
func (h *harness) beginSetup() {
	h.tr.rep = -1
	h.tr.on = h.trace
}

// beginRep opens repetition i, after a look at the machine's speed. In
// a traced run every second repetition runs with span recording off, so
// the run itself measures what tracing costs (bench.trace_overhead_frac).
func (h *harness) beginRep(i int) {
	h.calibrate()
	h.tr.rep = i
	h.tr.on = h.trace && i%2 == 0
}

// moreReps reports whether another repetition fits: at least minReps
// always run, and in a traced run an even number, so traced and
// untraced repetitions pair up.
func (h *harness) moreReps(start time.Time, wall samples) bool {
	n := len(wall)
	if n < h.sz.MinReps || (h.trace && n%2 == 1) {
		return true
	}
	return time.Since(start).Seconds()+wall.median() <= h.seconds
}

// calibrate samples the machine's slowness between two pieces of
// measured work: one round of the kernel per second since the last
// sample, at most three, and none within 0.6 s of it, so calibration
// stays under a tenth of the run.
func (h *harness) calibrate() {
	since := time.Since(h.lastCal)
	if since < 600*time.Millisecond {
		return
	}
	for n := min(3, max(1, int(since.Seconds()))); n > 0; n-- {
		h.slow = append(h.slow, cal.round())
	}
	h.lastCal = time.Now()
}

// repSamples collects, per repetition, the numbers behind the
// end-to-end metrics every workload reports.
type repSamples struct{ wall, bulk, steady, event, allocs, bytes samples }

// add closes one repetition; its wall time was appended when it ended.
func (r *repSamples) add(bulkS, steadyMs, eventS, mallocs, allocBytes float64) {
	r.bulk = append(r.bulk, bulkS)
	r.steady = append(r.steady, steadyMs)
	r.event = append(r.event, eventS)
	r.allocs = append(r.allocs, mallocs/1e6)
	r.bytes = append(r.bytes, allocBytes/1e6)
}

// record turns the run's samples into the end-to-end metrics. Timings
// are divided by the run's median slowness (calibrate.go); allocation
// counts are as counted.
func (h *harness) record(r *repSamples) {
	h.calibrate()
	h.reps = len(r.wall)
	f := 1 / h.slow.median()
	for name, s := range map[string]samples{
		"setup_s": h.setup.scale(f), "wall_s": r.wall.scale(f), "bulk_s": r.bulk.scale(f),
		"steady_ms": r.steady.scale(f), "event_s": r.event.scale(f),
		"allocs_m": r.allocs, "alloc_mb": r.bytes,
	} {
		h.e2e[name] = newMetric(name, s, true)
	}
	if h.trace {
		h.setLayer("bench.machine_slowness", h.slow)
		h.traceOverhead(r.wall)
	}
}

// setLayer records a per-layer metric; a layer that did no work on
// this workload reports 0.
func (h *harness) setLayer(name string, s samples) { h.layer[name] = newMetric(name, s, false) }

func (h *harness) setLayerValue(name string, v float64) { h.setLayer(name, samples{v}) }

func newMetric(name string, s samples, keep bool) metric {
	m := metric{Unit: unitOf(name), N: len(s)}
	if len(s) == 0 {
		return m
	}
	c := s.sorted()
	m.Value, m.Min, m.Max = s.median(), c[0], c[len(c)-1]
	if keep {
		m.Samples = append([]float64(nil), s...)
	}
	return m
}

// traceOverhead compares the wall time of traced and untraced
// repetitions of one traced run.
func (h *harness) traceOverhead(wall samples) {
	var traced, plain samples
	for i, w := range wall {
		if i%2 == 0 {
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
		}
	}
	if len(plain) > 0 && plain.median() > 0 {
		h.setLayerValue("bench.trace_overhead_frac", traced.median()/plain.median()-1)
	}
}

// memDelta runs fn between two MemStats reads, after a collection so
// that garbage from the previous repetition is not charged to this one.
func memDelta(fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// probe calls fn k times and returns the mean time of one call in
// seconds and the mean allocations per call.
func probe(k int, fn func()) (sec, allocs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	for i := 0; i < k; i++ {
		fn()
	}
	d := time.Since(t)
	runtime.ReadMemStats(&b)
	return d.Seconds() / float64(k), float64(b.Mallocs-a.Mallocs) / float64(k)
}
