package obs

import (
	"bytes"
	"fmt"
	"math/rand"
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
