package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomWeights draws n positive cell weights mixing huge, ordinary and
// tiny magnitudes, so the cumulative sums contain runs of equal values:
// a tiny cell after a huge running sum adds nothing in float64.
func randomWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch rng.Intn(4) {
		case 0:
			w[i] = 1e12 * (1 + rng.Float64())
		case 1:
			w[i] = 1e-12 * (1 + rng.Float64())
		default:
			w[i] = rng.Float64() + 1e-3
		}
	}
	return w
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	sum := 0.0
	for i, v := range w {
		sum += v
		cum[i] = sum
	}
	return cum
}

// TestCumIndexMatchesBinarySearch pins the guide table's contract:
// for every probe from 0 to the last weight — each cumulative value,
// its float neighbours, and uniform draws — search returns exactly the
// index sort.SearchFloat64s does, including inside runs of equal
// values and at the last cell.
func TestCumIndexMatchesBinarySearch(t *testing.T) {
	runs := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cum := cumulative(randomWeights(rng, 1+rng.Intn(300)))
		for i := 1; i < len(cum); i++ {
			if cum[i] == cum[i-1] {
				runs++
			}
		}
		ix := newCumIndex(cum)
		sum := cum[len(cum)-1]
		probes := []float64{0, sum, math.Nextafter(sum, 0)}
		for _, c := range cum {
			probes = append(probes, c, math.Nextafter(c, 0), math.Min(math.Nextafter(c, math.Inf(1)), sum))
		}
		for k := 0; k < 500; k++ {
			probes = append(probes, rng.Float64()*sum)
		}
		for _, x := range probes {
			if got, want := ix.search(x), sort.SearchFloat64s(cum, x); got != want {
				t.Fatalf("seed %d, %d cells: search(%v) = %d, sort.SearchFloat64s = %d", seed, len(cum), x, got, want)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no run of equal cumulative values was generated")
	}
}

// sampleFlowsBinarySearch is SampleFlows with the binary search the
// guide table replaced, kept as the reference.
func sampleFlowsBinarySearch(m *Matrix, n int, totalGbps float64, seed int64) []FlowSample {
	type cell struct{ src, dst int }
	var cells []cell
	var cum []float64
	sum := 0.0
	m.Demands(func(src, dst int, gbps float64) {
		sum += gbps
		cells = append(cells, cell{src, dst})
		cum = append(cum, sum)
	})
	rng := rand.New(rand.NewSource(seed))
	base := totalGbps / float64(n)
	out := make([]FlowSample, n)
	for i := range out {
		c := cells[sort.SearchFloat64s(cum, rng.Float64()*sum)]
		out[i] = FlowSample{Src: c.src, Dst: c.dst, Gbps: base * (0.5 + rng.Float64())}
	}
	return out
}

// TestSampleFlowsMatchesBinarySearch: the guide table changes how a
// cell is found, never which one, nor the RNG call sequence.
func TestSampleFlowsMatchesBinarySearch(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(30)
		m := NewMatrix(size)
		w := randomWeights(rng, size*size)
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if i != j && rng.Intn(5) != 0 {
					m.Set(i, j, w[i*size+j])
				}
			}
		}
		if m.Total() == 0 {
			m.Set(0, 1, 1)
		}
		got := SampleFlows(m, 2000, 100, seed)
		if want := sampleFlowsBinarySearch(m, 2000, 100, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: samples diverge from the binary-search reference", seed)
		}
	}
}
