package obs

import (
	"bytes"
	"sync"
	"testing"

	"github.com/public-option/poc/internal/analysis"
)

// TestNilRegistryIsNoOp: every method must be callable on nil — that
// is the entire "zero cost when off" contract.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Add("a", 1)
	r.AddFloat("b", 1.5)
	r.Set("c", 2)
	r.SetMax("d", 3)
	r.Observe("e", []float64{1, 10}, 5)
	r.KeyedMax("f", 7, 0.5)
	r.Append("g", 1)
	sp := r.StartSpan("h")
	sp.End()
	if r.Counter("a") != 0 || r.Float("b") != 0 || r.Gauge("c") != 0 {
		t.Fatal("nil registry returned non-zero values")
	}
	b, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"schema":"poc-obs/v1"}` {
		t.Fatalf("nil export = %s", b)
	}
}

func TestCountersGaugesFloats(t *testing.T) {
	r := New()
	r.Add("checks", 3)
	r.Add("checks", 4)
	if got := r.Counter("checks"); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	r.AddFloat("income", 0.25)
	r.AddFloat("income", 0.5)
	if got := r.Float("income"); got != 0.75 {
		t.Fatalf("float = %v, want 0.75", got)
	}
	r.Set("cost", 10)
	r.Set("cost", 20)
	if got := r.Gauge("cost"); got != 20 {
		t.Fatalf("gauge = %v, want 20 (last write wins)", got)
	}
	r.SetMax("peak", 5)
	r.SetMax("peak", 3)
	r.SetMax("peak", 9)
	e := r.Capture()
	if e.Maxima["peak"] != 9 {
		t.Fatalf("max = %v, want 9", e.Maxima["peak"])
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	buckets := []float64{1, 10, 100}
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		r.Observe("lat", buckets, v)
	}
	e := r.Capture()
	h := e.Histograms["lat"]
	// v <= buckets[i] lands in counts[i]; counts[3] is overflow.
	want := []int64{2, 2, 1, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Count != 6 || h.Min != 0.5 || h.Max != 1000 {
		t.Fatalf("count/min/max = %d/%v/%v", h.Count, h.Min, h.Max)
	}
}

func TestKeyedMaxAndTimeline(t *testing.T) {
	r := New()
	r.KeyedMax("util", 3, 0.5)
	r.KeyedMax("util", 3, 0.2)
	r.KeyedMax("util", 8, 0.9)
	e := r.Capture()
	if e.Keyed["util"][3] != 0.5 || e.Keyed["util"][8] != 0.9 {
		t.Fatalf("keyed = %v", e.Keyed["util"])
	}
	r.Append("net", 1)
	r.Append("net", -2)
	tl := r.Timeline("net")
	if len(tl) != 2 || tl[0] != 1 || tl[1] != -2 {
		t.Fatalf("timeline = %v", tl)
	}
}

// TestSpansMonotonicClock: spans must order on the step clock, nest,
// and never consult wall time.
func TestSpansMonotonicClock(t *testing.T) {
	r := New()
	outer := r.StartSpan("outer")
	inner := r.StartSpan("inner")
	inner.End()
	outer.End()
	e := r.Capture()
	if len(e.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(e.Spans))
	}
	o, i := e.Spans[0], e.Spans[1]
	if o.Name != "outer" || i.Name != "inner" {
		t.Fatalf("span order %q, %q", o.Name, i.Name)
	}
	if !(o.Start < i.Start && i.Start < i.End && i.End < o.End) {
		t.Fatalf("step clock not monotonic: outer [%d,%d] inner [%d,%d]",
			o.Start, o.End, i.Start, i.End)
	}
	if o.Depth != 0 || i.Depth != 1 {
		t.Fatalf("depths %d, %d", o.Depth, i.Depth)
	}
}

// TestCommutativeOpsUnderRace hammers the parallel-safe operations
// from many goroutines and asserts the final state is exactly what a
// serial run would produce — the property the auction's parallel
// counterfactuals rely on.
func TestCommutativeOpsUnderRace(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add("n", 1)
				r.SetMax("m", float64(w*per+i))
				r.Observe("h", []float64{100, 1000, 10000}, float64(i))
				r.KeyedMax("k", i%10, float64(w))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	e := r.Capture()
	if e.Maxima["m"] != float64(workers*per-1) {
		t.Fatalf("max = %v", e.Maxima["m"])
	}
	if e.Histograms["h"].Count != workers*per {
		t.Fatalf("hist count = %d", e.Histograms["h"].Count)
	}
	for k, v := range e.Keyed["k"] {
		if v != workers-1 {
			t.Fatalf("keyed[%d] = %v, want %d", k, v, workers-1)
		}
	}
}

// TestExportDeterminism: two registries fed identical data — even in
// different insertion orders for the commutative parts — must export
// identical bytes.
func TestExportDeterminism(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := New()
		vals := []int{1, 2, 3, 4, 5}
		if reverse {
			for i := len(vals) - 1; i >= 0; i-- {
				r.Add("c", int64(vals[i]))
				r.KeyedMax("k", vals[i], float64(vals[i]))
			}
		} else {
			for _, v := range vals {
				r.Add("c", int64(v))
				r.KeyedMax("k", v, float64(v))
			}
		}
		r.Set("g", 3.25)
		r.AddFloat("f", 1.125)
		r.Append("t", 9)
		sp := r.StartSpan("s")
		sp.End()
		return r
	}
	var a, b bytes.Buffer
	if err := build(false).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("export not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	if !bytes.Contains(a.Bytes(), []byte(Schema)) {
		t.Fatal("export missing schema marker")
	}
}

// TestMetaCarriesPoclintVersion: pocsim stamps the linter
// version into the export meta (reg.SetMeta("poclint", ...)); the tag
// must be the current v3 one and round-trip verbatim into the export
// so baselines record which analyzer generation vetted the run.
func TestMetaCarriesPoclintVersion(t *testing.T) {
	if analysis.Version != "poclint/v3" {
		t.Fatalf("analysis.Version = %q, want poclint/v3", analysis.Version)
	}
	r := New()
	r.SetMeta("poclint", analysis.Version)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"poclint"`)) || !bytes.Contains(buf.Bytes(), []byte(`"poclint/v3"`)) {
		t.Fatalf("export meta missing the poclint version tag:\n%s", buf.String())
	}
}
