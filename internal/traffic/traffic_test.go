package traffic

import (
	"math"
	"testing"
	"testing/quick"
)

func unitMass(int) float64 { return 1 }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.Size() != 3 {
		t.Fatalf("size = %d", m.Size())
	}
	m.Set(0, 1, 5)
	m.Set(1, 2, 2.5)
	if m.At(0, 1) != 5 || m.At(1, 2) != 2.5 || m.At(2, 0) != 0 {
		t.Fatal("At/Set mismatch")
	}
	if m.Total() != 7.5 {
		t.Fatalf("total = %v", m.Total())
	}
}

func TestMatrixPanics(t *testing.T) {
	m := NewMatrix(2)
	for _, fn := range []func(){
		func() { m.Set(0, 0, 1) },
		func() { m.Set(0, 1, -1) },
		func() { m.Set(0, 1, math.NaN()) },
		func() { m.Scale(-1) },
		func() { Diurnal(m, 25) },
		func() { Hotspot(m, 0, -1) },
		func() { Gravity(2, GravityConfig{TotalGbps: 0}, unitMass, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	// Diagonal zero set is allowed.
	m.Set(1, 1, 0)
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 1)
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestScale(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 4)
	m.Scale(0.5)
	if m.At(0, 1) != 2 {
		t.Fatalf("scaled = %v", m.At(0, 1))
	}
}

func TestGravityTotalAndDiagonal(t *testing.T) {
	cfg := GravityConfig{TotalGbps: 1000, Seed: 3}
	m := Gravity(10, cfg, unitMass, nil)
	if math.Abs(m.Total()-1000) > 1e-6 {
		t.Fatalf("total = %v, want 1000", m.Total())
	}
	for i := 0; i < 10; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal (%d,%d) = %v", i, i, m.At(i, i))
		}
	}
}

func TestGravityMassProportionality(t *testing.T) {
	mass := func(i int) float64 {
		if i == 0 {
			return 10
		}
		return 1
	}
	m := Gravity(5, GravityConfig{TotalGbps: 100, Seed: 1}, mass, nil)
	// Row 0 should carry much more than row 1.
	row := func(i int) float64 {
		s := 0.0
		for j := 0; j < 5; j++ {
			s += m.At(i, j)
		}
		return s
	}
	if row(0) < 3*row(1) {
		t.Fatalf("row0 = %v not much larger than row1 = %v", row(0), row(1))
	}
}

func TestGravityDistanceDecay(t *testing.T) {
	dist := func(i, j int) float64 { return math.Abs(float64(i-j)) * 1000 }
	m := Gravity(10, GravityConfig{TotalGbps: 100, DistanceDecayKm: 500, Seed: 1}, unitMass, dist)
	if m.At(0, 1) <= m.At(0, 9) {
		t.Fatalf("near demand %v should exceed far demand %v", m.At(0, 1), m.At(0, 9))
	}
}

func TestGravityDeterministic(t *testing.T) {
	cfg := GravityConfig{TotalGbps: 100, Jitter: 0.5, Seed: 42}
	a := Gravity(8, cfg, unitMass, nil)
	b := Gravity(8, cfg, unitMass, nil)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatal("gravity is nondeterministic for fixed seed")
			}
		}
	}
}

func TestHotspotAddsExactly(t *testing.T) {
	m := Gravity(6, GravityConfig{TotalGbps: 60, Seed: 2}, unitMass, nil)
	before := m.Total()
	Hotspot(m, 2, 40)
	if math.Abs(m.Total()-before-40) > 1e-9 {
		t.Fatalf("hotspot added %v, want 40", m.Total()-before)
	}
	if m.At(2, 2) != 0 {
		t.Fatal("hotspot touched diagonal")
	}
}

func TestHotspotOnZeroRow(t *testing.T) {
	m := NewMatrix(4)
	Hotspot(m, 1, 30)
	if math.Abs(m.Total()-30) > 1e-9 {
		t.Fatalf("total = %v, want 30", m.Total())
	}
	// Spread evenly across 3 other points.
	if math.Abs(m.At(1, 0)-10) > 1e-9 {
		t.Fatalf("share = %v, want 10", m.At(1, 0))
	}
}

func TestDiurnalBounds(t *testing.T) {
	base := NewMatrix(2)
	base.Set(0, 1, 100)
	for h := 0; h < 24; h++ {
		d := Diurnal(base, h)
		v := d.At(0, 1)
		if v < 40-1e-9 || v > 100+1e-9 {
			t.Fatalf("hour %d: %v outside [40,100]", h, v)
		}
	}
	if Diurnal(base, 20).At(0, 1) != 100 {
		t.Fatalf("peak hour should equal base, got %v", Diurnal(base, 20).At(0, 1))
	}
}

func TestDemandsIteration(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 2, 1)
	m.Set(2, 1, 4)
	var got []float64
	m.Demands(func(s, d int, g float64) { got = append(got, g) })
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("demands = %v", got)
	}
}

// Property: scaling by f scales the total by f.
func TestQuickScaleLinearity(t *testing.T) {
	f := func(seed int64, rawF uint8) bool {
		scale := float64(rawF%50) / 10 // 0..4.9
		m := Gravity(6, GravityConfig{TotalGbps: 100, Jitter: 0.3, Seed: seed}, unitMass, nil)
		before := m.Total()
		m.Scale(scale)
		return math.Abs(m.Total()-before*scale) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
