// Package traffic generates the synthetic traffic matrices that drive
// the POC's provisioning and auction constraints.
//
// The paper assumes "the POC has some upper-bound estimate of its
// traffic matrix (how much traffic flows between each pair of
// attachment points)" and generates "a synthetic traffic matrix
// between all POC routers" for its auction evaluation (§3.3). This
// package provides a gravity model seeded from city populations, a
// hotspot variant, a diurnal curve that scales the gravity matrix
// down from its peak, and SampleFlows, which splits a matrix into
// individual flows for the fabric.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a demand matrix in Gbps between n attachment points.
// Entry (i,j) is the directed demand from i to j. The diagonal is
// zero.
type Matrix struct {
	n    int
	cell []float64
}

// NewMatrix returns a zero matrix over n attachment points.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, cell: make([]float64, n*n)}
}

// Size returns the number of attachment points.
func (m *Matrix) Size() int { return m.n }

// At returns the demand from i to j.
func (m *Matrix) At(i, j int) float64 { return m.cell[i*m.n+j] }

// Set sets the demand from i to j. Setting the diagonal or a negative
// demand panics: both indicate a bug in the caller.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j && v != 0 {
		panic(fmt.Sprintf("traffic: self-demand at %d", i))
	}
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("traffic: invalid demand %v", v))
	}
	m.cell[i*m.n+j] = v
}

// Total returns the sum of all demands.
func (m *Matrix) Total() float64 {
	s := 0.0
	for _, v := range m.cell {
		s += v
	}
	return s
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.cell, m.cell)
	return c
}

// Scale multiplies every demand by f (f >= 0) in place and returns m.
func (m *Matrix) Scale(f float64) *Matrix {
	if f < 0 {
		panic("traffic: negative scale")
	}
	for i := range m.cell {
		m.cell[i] *= f
	}
	return m
}

// Demands calls fn for every non-zero demand in row-major order.
func (m *Matrix) Demands(fn func(src, dst int, gbps float64)) {
	for i := 0; i < m.n; i++ {
		for j, v := range m.cell[i*m.n : (i+1)*m.n] {
			if v > 0 {
				fn(i, j, v)
			}
		}
	}
}

// GravityConfig parameterises the gravity model.
type GravityConfig struct {
	// TotalGbps is the target aggregate demand; the matrix is scaled
	// so Total() equals it.
	TotalGbps float64
	// DistanceDecayKm attenuates demand between far-apart points:
	// weight *= 1/(1+d/DistanceDecayKm). Zero disables attenuation.
	DistanceDecayKm float64
	// Jitter in [0,1) adds multiplicative noise 1±Jitter drawn from
	// the seeded RNG, so matrices are not perfectly symmetric.
	Jitter float64
	Seed   int64
}

// DefaultGravityConfig returns the configuration used by the Figure 2
// pipeline: 20 Tbps aggregate with mild distance decay and jitter —
// about 40% of the default zoo's routable capacity, leaving the
// auction room to drop expensive links.
func DefaultGravityConfig() GravityConfig {
	return GravityConfig{TotalGbps: 20000, DistanceDecayKm: 8000, Jitter: 0.25, Seed: 7}
}

// Gravity builds a demand matrix over n attachment points using the
// gravity model: demand(i,j) ∝ mass(i)·mass(j), optionally attenuated
// by distance. mass and dist are caller-supplied accessors (dist may
// be nil when DistanceDecayKm is zero).
func Gravity(n int, cfg GravityConfig, mass func(i int) float64, dist func(i, j int) float64) *Matrix {
	if cfg.TotalGbps <= 0 {
		panic("traffic: TotalGbps must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			w := mass(i) * mass(j)
			if cfg.DistanceDecayKm > 0 {
				w /= 1 + dist(i, j)/cfg.DistanceDecayKm
			}
			if cfg.Jitter > 0 {
				w *= 1 + cfg.Jitter*(2*rng.Float64()-1)
			}
			m.Set(i, j, w)
		}
	}
	total := m.Total()
	if total <= 0 {
		panic("traffic: gravity model produced zero demand; check masses")
	}
	return m.Scale(cfg.TotalGbps / total)
}

// Hotspot adds a content-provider style hotspot: source src fans out
// extra demand to every other point, proportional to existing row
// weight, totalling extraGbps. It mutates m and returns it.
func Hotspot(m *Matrix, src int, extraGbps float64) *Matrix {
	if extraGbps < 0 {
		panic("traffic: negative hotspot")
	}
	row := 0.0
	for j := 0; j < m.n; j++ {
		row += m.At(src, j)
	}
	for j := 0; j < m.n; j++ {
		if j == src {
			continue
		}
		var share float64
		if row > 0 {
			share = m.At(src, j) / row
		} else {
			share = 1 / float64(m.n-1)
		}
		m.Set(src, j, m.At(src, j)+extraGbps*share)
	}
	return m
}

// Diurnal returns the matrix at a given hour of day (0..23): demand
// follows a sinusoid peaking at hour 20 local-agnostic, floor at 40%
// of peak. The base matrix is treated as the peak.
func Diurnal(base *Matrix, hour int) *Matrix {
	if hour < 0 || hour > 23 {
		panic(fmt.Sprintf("traffic: hour %d out of range", hour))
	}
	phase := 2 * math.Pi * float64(hour-20) / 24
	f := 0.7 + 0.3*math.Cos(phase) // in [0.4, 1.0]
	return base.Clone().Scale(f)
}
