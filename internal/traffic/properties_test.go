package traffic

import (
	"math"
	"testing"
)

// propBase builds a small asymmetric matrix with a zero row (2) so
// the properties below exercise both the weighted and the uniform
// hotspot split.
func propBase() *Matrix {
	m := NewMatrix(4)
	m.Set(0, 1, 10)
	m.Set(0, 2, 30)
	m.Set(0, 3, 60)
	m.Set(1, 0, 5)
	m.Set(1, 3, 15)
	m.Set(3, 0, 8)
	return m
}

// TestDiurnalEnvelopeUpperBound: the base matrix is the diurnal peak,
// so no hourly matrix exceeds it anywhere, and the peak hour returns
// it exactly — this is the upper bound the POC provisions against.
func TestDiurnalEnvelopeUpperBound(t *testing.T) {
	base := propBase()
	for i := 0; i < base.Size(); i++ {
		for j := 0; j < base.Size(); j++ {
			peak := 0.0
			for h := 0; h < 24; h++ {
				v := Diurnal(base, h).At(i, j)
				if v > base.At(i, j) {
					t.Fatalf("hour %d exceeds the peak at (%d,%d): %v > %v", h, i, j, v, base.At(i, j))
				}
				peak = math.Max(peak, v)
			}
			if peak != base.At(i, j) {
				t.Fatalf("max over hours at (%d,%d) = %v, want peak %v", i, j, peak, base.At(i, j))
			}
		}
	}
}

// TestDiurnalScalingLinearity: Diurnal commutes with Scale — shrinking
// demand then applying the daily curve must equal applying the curve
// then shrinking. Scaled-down test scenarios rely on this to keep the
// same qualitative shape as the paper-scale instance.
func TestDiurnalScalingLinearity(t *testing.T) {
	base := propBase()
	const f = 0.37
	for h := 0; h < 24; h++ {
		a := Diurnal(base.Clone().Scale(f), h)
		b := Diurnal(base, h).Scale(f)
		for i := 0; i < base.Size(); i++ {
			for j := 0; j < base.Size(); j++ {
				if d := math.Abs(a.At(i, j) - b.At(i, j)); d > 1e-12*math.Max(1, b.At(i, j)) {
					t.Fatalf("hour %d: scale/diurnal don't commute at (%d,%d): %v vs %v",
						h, i, j, a.At(i, j), b.At(i, j))
				}
			}
		}
	}
}

// TestDiurnalDailyConservation: summed over a full 24-hour cycle, the
// diurnal factors are a phase-shifted sampling of one cosine period,
// so total daily demand must not depend on where the peak lands. The
// sinusoid's cosine terms cancel over the period, leaving exactly
// 24 x 0.7 x base total.
func TestDiurnalDailyConservation(t *testing.T) {
	base := propBase()
	want := 24 * 0.7 * base.Total()
	// Shift the phase by re-labelling which hour we start summing at;
	// any 24-hour window must conserve the same total.
	for start := 0; start < 24; start++ {
		day := 0.0
		for k := 0; k < 24; k++ {
			day += Diurnal(base, (start+k)%24).Total()
		}
		if math.Abs(day-want) > 1e-9*want {
			t.Fatalf("window starting at hour %d carries %v GB-hours, want %v", start, day, want)
		}
	}
}

// TestHotspotConservesAndScales: a hotspot adds exactly extraGbps to
// the matrix total (the fan-out shares sum to one for weighted and
// zero rows alike), and hotspot injection is linear under scaling.
func TestHotspotConservesAndScales(t *testing.T) {
	for _, src := range []int{0, 2} { // weighted row and zero row
		base := propBase()
		before := base.Total()
		const extra = 42.0
		Hotspot(base, src, extra)
		if d := math.Abs(base.Total() - before - extra); d > 1e-9 {
			t.Fatalf("src %d: hotspot changed total by %v, want %v", src, base.Total()-before, extra)
		}
		if base.At(src, src) != 0 {
			t.Fatalf("src %d: hotspot wrote the diagonal", src)
		}

		const f = 2.5
		a := Hotspot(propBase().Scale(f), src, f*extra)
		b := Hotspot(propBase(), src, extra).Scale(f)
		for i := 0; i < a.Size(); i++ {
			for j := 0; j < a.Size(); j++ {
				if d := math.Abs(a.At(i, j) - b.At(i, j)); d > 1e-12*math.Max(1, b.At(i, j)) {
					t.Fatalf("src %d: hotspot/scale don't commute at (%d,%d): %v vs %v",
						src, i, j, a.At(i, j), b.At(i, j))
				}
			}
		}
	}
}
