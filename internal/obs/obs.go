// Package obs is the zero-dependency observability layer: a metrics
// registry (counters, gauges, histograms with fixed bucket layouts),
// per-epoch timeline recorders, and lightweight trace spans.
//
// Everything in this package is built around one invariant: the
// exported JSON must be byte-identical across runs and across Workers
// settings. That rules out wall clocks, float accumulation order, and
// anything scheduling-dependent. The rules, which every caller must
// respect, are:
//
//   - Commutative operations — Add (integer counters), Observe
//     (integer bucket increments plus min/max), SetMax, and KeyedMax —
//     may be called from parallel sections: integer addition and max
//     are order-independent, so any interleaving yields the same
//     state.
//   - Order-dependent operations — Set (gauges), AddFloat (float
//     accumulators), Append (timelines), StartSpan, and Capture — must
//     only be called from serial orchestration code. Float addition
//     is not associative, timelines and spans are ordered, and a
//     capture taken mid-section would hold half of it.
//   - Histograms store integer bucket counts, a total count, and a
//     running min/max. They do not keep a float sum: summing float
//     observations in scheduling order would break bit-identity.
//   - Spans use a registry-level monotonic step counter instead of
//     wall clocks, so traces order causally and replay identically.
//   - Nothing derived from Workers, GOMAXPROCS, hostnames, or time
//     may be recorded.
//
// Every method is nil-safe: a nil *Registry turns the entire layer
// into no-ops costing one branch per call site, so instrumented hot
// paths pay nothing when observability is off.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"sort"
	"sync"
)

// Schema identifies the export format; bump on breaking changes.
const Schema = "poc-obs/v1"

// Registry is one metrics namespace. A single registry is threaded
// through every layer of a deployment so the export is one coherent
// ledger. The zero value is ready to use; so is nil (as a no-op).
type Registry struct {
	mu sync.Mutex

	meta     map[string]string // static run labels, set from serial code
	counters map[string]int64
	floats   map[string]float64
	gauges   map[string]float64
	maxima   map[string]float64
	hists    map[string]*histogram
	keyed    map[string]map[int]float64
	lines    map[string][]float64
	spans    []Span
	step     uint64 // monotonic span clock
	open     []int  // stack of open span indexes

	// last is the Export the latest Capture returned. A family whose
	// bit is set in fresh has not been written since, so the next
	// Capture hands out last's map or slice for it again instead of a
	// copy. Every write clears its family's bit.
	last  Export
	fresh family
}

// family is a bit set over the registry's recorded families.
type family uint16

const (
	famMeta family = 1 << iota
	famCounters
	famFloats
	famGauges
	famMaxima
	famHists
	famKeyed
	famLines
	famSpans
	famAll = famMeta | famCounters | famFloats | famGauges | famMaxima | famHists | famKeyed | famLines | famSpans
)

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// histogram is a fixed-layout histogram: counts[i] counts
// observations v <= buckets[i]; counts[len(buckets)] is the overflow
// bucket. Only integers and min/max are kept — no float sum.
type histogram struct {
	buckets []float64
	counts  []int64
	count   int64
	min     float64
	max     float64
}

// Span is one trace interval on the registry's monotonic step clock.
type Span struct {
	Name  string `json:"name"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Depth int    `json:"depth"`
}

// SetMeta attaches a static label to the export (a fleet cell's key,
// a tool version). Values must themselves be deterministic — never a
// timestamp or hostname. Last write per key wins; set from serial
// orchestration code only.
func (r *Registry) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.meta == nil {
		r.meta = make(map[string]string)
	}
	r.meta[key] = value
	r.fresh &^= famMeta
	r.mu.Unlock()
}

// Add increments an integer counter. Commutative: safe from parallel
// sections.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
	r.fresh &^= famCounters
	r.mu.Unlock()
}

// AddFloat accumulates into a float. Float addition is not
// associative: serial sections only.
func (r *Registry) AddFloat(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.floats == nil {
		r.floats = make(map[string]float64)
	}
	r.floats[name] += v
	r.fresh &^= famFloats
	r.mu.Unlock()
}

// Set writes a gauge (last write wins). Order-dependent: serial
// sections only.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	r.gauges[name] = v
	r.fresh &^= famGauges
	r.mu.Unlock()
}

// SetMax raises a running maximum. Max is commutative: safe from
// parallel sections.
func (r *Registry) SetMax(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.maxima == nil {
		r.maxima = make(map[string]float64)
	}
	if old, ok := r.maxima[name]; !ok || v > old {
		r.maxima[name] = v
		r.fresh &^= famMaxima
	}
	r.mu.Unlock()
}

// Observe records a value into a fixed-layout histogram. The layout
// is bound on the first call for a name; later calls must pass the
// same layout (it is ignored). Bucket increments and min/max are
// commutative: safe from parallel sections.
func (r *Registry) Observe(name string, buckets []float64, v float64) {
	if r == nil {
		return
	}
	if math.IsNaN(v) {
		panic("obs: NaN observation for " + name)
	}
	r.mu.Lock()
	if r.hists == nil {
		r.hists = make(map[string]*histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = &histogram{
			buckets: append([]float64(nil), buckets...),
			counts:  make([]int64, len(buckets)+1),
			min:     math.Inf(1),
			max:     math.Inf(-1),
		}
		r.hists[name] = h
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.count++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	r.fresh &^= famHists
	r.mu.Unlock()
}

// KeyedMax raises a per-key running maximum (e.g. per-link peak
// utilization). Commutative: safe from parallel sections.
func (r *Registry) KeyedMax(name string, key int, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.keyed == nil {
		r.keyed = make(map[string]map[int]float64)
	}
	m, ok := r.keyed[name]
	if !ok {
		m = make(map[int]float64)
		r.keyed[name] = m
	}
	if old, ok := m[key]; !ok || v > old {
		m[key] = v
		r.fresh &^= famKeyed
	}
	r.mu.Unlock()
}

// KeyedSet writes a per-key value (last write wins), sharing storage
// with KeyedMax — use exactly one of the two per name. Ordered:
// serial sections only.
func (r *Registry) KeyedSet(name string, key int, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.keyed == nil {
		r.keyed = make(map[string]map[int]float64)
	}
	m, ok := r.keyed[name]
	if !ok {
		m = make(map[int]float64)
		r.keyed[name] = m
	}
	m[key] = v
	r.fresh &^= famKeyed
	r.mu.Unlock()
}

// Append records the next point of a timeline (one value per epoch).
// Ordered: serial sections only.
func (r *Registry) Append(name string, v float64) {
	if r == nil {
		return
	}
	if math.IsNaN(v) {
		panic("obs: NaN timeline point for " + name)
	}
	r.mu.Lock()
	if r.lines == nil {
		r.lines = make(map[string][]float64)
	}
	r.lines[name] = append(r.lines[name], v)
	r.fresh &^= famLines
	r.mu.Unlock()
}

// SpanHandle closes one span opened by StartSpan.
type SpanHandle struct {
	r   *Registry
	idx int
}

// StartSpan opens a trace span on the monotonic step clock and
// returns a handle whose End closes it. Spans are ordered: serial
// orchestration code only. Nest freely; End in LIFO order.
func (r *Registry) StartSpan(name string) SpanHandle {
	if r == nil {
		return SpanHandle{}
	}
	r.mu.Lock()
	r.step++
	r.spans = append(r.spans, Span{Name: name, Start: r.step, Depth: len(r.open)})
	idx := len(r.spans) - 1
	r.open = append(r.open, idx)
	r.fresh &^= famSpans
	r.mu.Unlock()
	return SpanHandle{r: r, idx: idx}
}

// End closes the span. Safe on the zero handle (from a nil registry).
func (s SpanHandle) End() {
	if s.r == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	r.step++
	r.spans[s.idx].End = r.step
	r.fresh &^= famSpans
	if n := len(r.open); n > 0 && r.open[n-1] == s.idx {
		r.open = r.open[:n-1]
	}
	r.mu.Unlock()
}

// histExport is the JSON shape of one histogram.
type histExport struct {
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Count   int64     `json:"count"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
}

// Export is one captured registry state in its JSON shape, returned by
// Capture. It is immutable: nothing the registry records afterwards
// shows in it, and its holder must not write through its maps or
// slices. encoding/json sorts map keys, so marshaling an Export is
// deterministic.
type Export struct {
	Schema     string                     `json:"schema"`
	Meta       map[string]string          `json:"meta,omitempty"`
	Counters   map[string]int64           `json:"counters,omitempty"`
	Floats     map[string]float64         `json:"floats,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Maxima     map[string]float64         `json:"maxima,omitempty"`
	Histograms map[string]histExport      `json:"histograms,omitempty"`
	Keyed      map[string]map[int]float64 `json:"keyed,omitempty"`
	Timelines  map[string][]float64       `json:"timelines,omitempty"`
	Spans      []Span                     `json:"spans,omitempty"`
}

// Capture returns the registry's current state without rendering it.
// It copies only the families written since the previous Capture: for
// every other family it hands out the previous capture's map or slice
// again, which is safe because the registry never writes into a map or
// slice it has handed out. A family that was written costs one map
// entry per recorded name (plus the keyed maps' entries and the
// spans), never the length of a timeline: a timeline is append-only,
// so the capture shares its backing array up to the captured length
// with the capacity clipped to it — Append only ever writes at an
// index at or beyond that length, or into a fresh array. Histogram
// bucket layouts are fixed at the first Observe and shared the same
// way. Everything written in place is copied: counts, every map, and
// the spans (End fills in a span opened before the capture).
// A capture is ordered like Set and Append: take it from the serial
// section that records, then hand it to any goroutine.
func (r *Registry) Capture() Export {
	if r == nil {
		return Export{Schema: Schema}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.last
	e.Schema = Schema
	if r.fresh&famMeta == 0 {
		e.Meta = maps.Clone(r.meta)
	}
	if r.fresh&famCounters == 0 {
		e.Counters = maps.Clone(r.counters)
	}
	if r.fresh&famFloats == 0 {
		e.Floats = maps.Clone(r.floats)
	}
	if r.fresh&famGauges == 0 {
		e.Gauges = maps.Clone(r.gauges)
	}
	if r.fresh&famMaxima == 0 {
		e.Maxima = maps.Clone(r.maxima)
	}
	if r.fresh&famHists == 0 {
		e.Histograms = make(map[string]histExport, len(r.hists))
		for k, h := range r.hists {
			he := histExport{
				Buckets: h.buckets[:len(h.buckets):len(h.buckets)],
				Counts:  append([]int64(nil), h.counts...),
				Count:   h.count,
			}
			if h.count > 0 {
				he.Min, he.Max = h.min, h.max
			}
			e.Histograms[k] = he
		}
	}
	if r.fresh&famKeyed == 0 {
		e.Keyed = make(map[string]map[int]float64, len(r.keyed))
		for k, m := range r.keyed {
			e.Keyed[k] = maps.Clone(m)
		}
	}
	if r.fresh&famLines == 0 {
		e.Timelines = make(map[string][]float64, len(r.lines))
		for k, v := range r.lines {
			e.Timelines[k] = v[:len(v):len(v)]
		}
	}
	if r.fresh&famSpans == 0 {
		e.Spans = append([]Span(nil), r.spans...)
	}
	r.last, r.fresh = e, famAll
	return e
}

// JSON renders the capture as the indented poc-obs/v1 document.
// Identical captured state yields identical bytes, so two renders may
// be compared with bytes.Equal. Safe from any goroutine, concurrently
// with the registry's recording methods.
func (e Export) JSON() ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// MarshalJSON renders the registry deterministically: identical
// recorded state yields identical bytes.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Capture())
}

// ExportJSON renders the registry's indented deterministic export as
// bytes — the poc-obs/v1 document WriteJSON streams: Capture().JSON().
func (r *Registry) ExportJSON() ([]byte, error) {
	return r.Capture().JSON()
}

// WriteJSON writes the indented deterministic export.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := r.ExportJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteFile writes the export to a file.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close %s: %w", path, err)
	}
	return nil
}
