package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestCaptureImmutable is the property pocd's lazy render rests on: a
// Capture renders, at any later time and from any goroutine, exactly
// the bytes ExportJSON produced at the moment it was taken — whatever
// the registry records in between. Seeded random sequences cover every
// recording method, timelines appended to within spare capacity and
// across a reallocation after a capture that shares their array, and
// spans open at capture time and closed afterwards. A capture that
// aliased a live map, a histogram's counts or the span slice fails the
// byte comparison; a shared timeline written below its captured length
// would fail it too, and -race polices the concurrent render.
func TestCaptureImmutable(t *testing.T) {
	buckets := []float64{1, 10, 100}
	var inPlace, realloc int // appends after a capture, by kind
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		var open []SpanHandle
		shared := map[string]bool{} // timelines held by a capture since their last append
		name := func(family string) string { return fmt.Sprintf("%s.%d", family, rng.Intn(3)) }
		record := func() {
			v := rng.NormFloat64() * 50
			switch rng.Intn(11) {
			case 0:
				r.Add(name("count"), rng.Int63n(9)-2)
			case 1:
				r.AddFloat(name("float"), v)
			case 2:
				r.Set(name("gauge"), v)
			case 3:
				r.SetMax(name("max"), v)
			case 4:
				r.Observe(name("hist"), buckets, v)
			case 5:
				r.KeyedMax(name("kmax"), rng.Intn(6), v)
			case 6:
				r.KeyedSet(name("kset"), rng.Intn(6), v)
			case 7, 8:
				n := name("line")
				if shared[n] {
					if l := r.lines[n]; len(l) < cap(l) {
						inPlace++
					} else {
						realloc++
					}
					delete(shared, n)
				}
				r.Append(n, v)
			case 9:
				open = append(open, r.StartSpan(name("span")))
			case 10:
				if n := len(open); n > 0 {
					open[n-1].End()
					open = open[:n-1]
				}
			}
		}

		type held struct {
			e    Export
			want []byte
		}
		var caps []held
		capture := func() {
			want, err := r.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			caps = append(caps, held{r.Capture(), want})
			for n := range r.lines {
				shared[n] = true
			}
		}
		check := func(when string) {
			for i, c := range caps {
				got, err := c.e.JSON()
				if err != nil {
					t.Errorf("seed %d capture %d %s: %v", seed, i, when, err)
				} else if !bytes.Equal(got, c.want) {
					t.Errorf("seed %d capture %d %s: render differs from the export taken at capture time", seed, i, when)
				}
			}
		}

		capture() // the empty registry
		for i := 0; i < 300; i++ {
			record()
			if rng.Intn(20) == 0 {
				capture()
			}
		}
		capture() // typically with spans still open
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			check("while recording continues")
		}()
		for i := 0; i < 300; i++ {
			record()
		}
		for n := len(open); n > 0; n-- {
			open[n-1].End()
		}
		wg.Wait()
		check("after recording")
	}
	if inPlace == 0 || realloc == 0 {
		t.Fatalf("appends after a sharing capture: %d within capacity, %d reallocating; the test must see both", inPlace, realloc)
	}
}

// capturePopulated returns a registry with every family recorded, a
// span left open, and one Capture already taken.
func capturePopulated() (*Registry, SpanHandle) {
	r := New()
	r.SetMeta("m", "v1")
	r.Add("c", 1)
	r.AddFloat("f", 0.5)
	r.Set("g", 1)
	r.SetMax("x", 1)
	r.Observe("h", []float64{1, 10}, 5)
	r.KeyedMax("k", 1, 1)
	r.KeyedSet("ks", 1, 1)
	r.Append("l", 1)
	r.StartSpan("closed").End()
	open := r.StartSpan("open")
	r.Capture()
	return r, open
}

// exportFamilies returns each family's map or slice of e by JSON name.
func exportFamilies(e Export) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	v := reflect.ValueOf(e)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map || f.Kind() == reflect.Slice {
			out[strings.Split(v.Type().Field(i).Tag.Get("json"), ",")[0]] = f
		}
	}
	return out
}

// TestCaptureReusesUnwrittenFamilies: Capture copies only the families
// written since the previous capture and hands out the previous
// capture's map or slice for every other family. Each write shows in
// the next capture, in its own family alone, and leaves the capture
// taken before it unchanged; a max that does not rise is no write.
func TestCaptureReusesUnwrittenFamilies(t *testing.T) {
	writes := []struct {
		family string // "" = not a write
		write  func(*Registry, SpanHandle)
	}{
		{"meta", func(r *Registry, _ SpanHandle) { r.SetMeta("m", "v2") }},
		{"counters", func(r *Registry, _ SpanHandle) { r.Add("c", 1) }},
		{"floats", func(r *Registry, _ SpanHandle) { r.AddFloat("f", 0.25) }},
		{"gauges", func(r *Registry, _ SpanHandle) { r.Set("g", 2) }},
		{"maxima", func(r *Registry, _ SpanHandle) { r.SetMax("x", 2) }},
		{"", func(r *Registry, _ SpanHandle) { r.SetMax("x", 0.5) }},
		{"histograms", func(r *Registry, _ SpanHandle) { r.Observe("h", nil, 50) }},
		{"keyed", func(r *Registry, _ SpanHandle) { r.KeyedMax("k", 1, 2) }},
		{"keyed", func(r *Registry, _ SpanHandle) { r.KeyedMax("k", 2, 0.5) }},
		{"", func(r *Registry, _ SpanHandle) { r.KeyedMax("k", 1, 0.5) }},
		{"keyed", func(r *Registry, _ SpanHandle) { r.KeyedSet("ks", 1, 0.5) }},
		{"timelines", func(r *Registry, _ SpanHandle) { r.Append("l", 2) }},
		{"spans", func(r *Registry, _ SpanHandle) { r.StartSpan("more") }},
		{"spans", func(_ *Registry, open SpanHandle) { open.End() }},
		{"", func(*Registry, SpanHandle) {}},
	}
	for _, w := range writes {
		r, open := capturePopulated()
		before := r.Capture()
		want, err := before.JSON()
		if err != nil {
			t.Fatal(err)
		}
		w.write(r, open)
		after := r.Capture()
		if got, _ := before.JSON(); !bytes.Equal(got, want) {
			t.Errorf("%s write: the capture taken before it changed", w.family)
		}
		b, a := exportFamilies(before), exportFamilies(after)
		for fam, bv := range b {
			av := a[fam]
			if bv.Pointer() == 0 || av.Pointer() == 0 {
				t.Fatalf("%s: family %s empty in the populated registry", w.family, fam)
			}
			shared := av.Pointer() == bv.Pointer()
			changed := !reflect.DeepEqual(av.Interface(), bv.Interface())
			switch {
			case fam == w.family && (shared || !changed):
				t.Errorf("%s write: the next capture's %s shared %v, changed %v; want a changed copy", w.family, fam, shared, changed)
			case fam != w.family && !shared:
				t.Errorf("%s write: the next capture copied the unwritten family %s", w.family, fam)
			}
		}
	}
}
