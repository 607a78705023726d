// Package econ implements the paper's §4 economic model of network
// neutrality: consumers with willingness-to-pay distributions, CSPs
// setting monopoly prices, LMPs imposing termination fees either
// unilaterally (double marginalization) or through Nash bargaining,
// and the resulting social-welfare comparisons between the
// network-neutrality (NN) and unregulated (UR) regimes.
//
// All quantities follow the paper's notation: F_s is the cumulative
// distribution of consumer values v_s for service s, D_s(p) = 1−F_s(p)
// is demand at price p, t_s is a termination fee, r_l^s is the rate at
// which LMP l loses customers when service s walks away, and c_l is
// the LMP's access charge.
package econ

import "math"

// Demand describes one CSP service's demand side: the distribution of
// consumer willingness-to-pay.
type Demand interface {
	// F returns the CDF of willingness-to-pay at v.
	F(v float64) float64
	// Density returns the PDF at v (used by welfare integration).
	Density(v float64) float64
	// Max returns an upper bound on willingness-to-pay: F(Max()) = 1
	// (or numerically close for unbounded supports).
	Max() float64
}

// D returns the demand D(p) = 1 − F(p) for any Demand.
func D(d Demand, p float64) float64 { return 1 - d.F(p) }

// Uniform is willingness-to-pay uniform on [0, High].
type Uniform struct{ High float64 }

// F implements Demand.
func (u Uniform) F(v float64) float64 {
	switch {
	case v <= 0:
		return 0
	case v >= u.High:
		return 1
	default:
		return v / u.High
	}
}

// Density implements Demand.
func (u Uniform) Density(v float64) float64 {
	if v < 0 || v > u.High {
		return 0
	}
	return 1 / u.High
}

// Max implements Demand.
func (u Uniform) Max() float64 { return u.High }

// Exponential is willingness-to-pay with survival exp(-v/Mean):
// demand D(p) = exp(-p/Mean). This family satisfies the smoothness
// and convexity conditions of the paper's Lemma 1 exactly.
type Exponential struct{ Mean float64 }

// F implements Demand.
func (e Exponential) F(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return 1 - math.Exp(-v/e.Mean)
}

// Density implements Demand.
func (e Exponential) Density(v float64) float64 {
	if v < 0 {
		return 0
	}
	return math.Exp(-v/e.Mean) / e.Mean
}

// Max implements Demand.
func (e Exponential) Max() float64 { return e.Mean * 40 }

// Pareto is a Lomax (Pareto II) willingness-to-pay: survival
// (1+v/Scale)^(-Alpha), heavy-tailed. Alpha must exceed 1 for finite
// mean.
type Pareto struct {
	Scale float64
	Alpha float64
}

// F implements Demand.
func (p Pareto) F(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return 1 - math.Pow(1+v/p.Scale, -p.Alpha)
}

// Density implements Demand.
func (p Pareto) Density(v float64) float64 {
	if v < 0 {
		return 0
	}
	return p.Alpha / p.Scale * math.Pow(1+v/p.Scale, -p.Alpha-1)
}

// Max implements Demand.
func (p Pareto) Max() float64 {
	// Survival drops below ~1e-9 here.
	return p.Scale * (math.Pow(1e-9, -1/p.Alpha) - 1)
}

// Logistic willingness-to-pay centered at Mid with spread S,
// truncated at zero (values are non-negative): demand is a smooth
// step renormalized so F(0) = 0.
type Logistic struct {
	Mid float64
	S   float64
}

func (l Logistic) raw(v float64) float64 {
	return 1 / (1 + math.Exp(-(v-l.Mid)/l.S))
}

// F implements Demand.
func (l Logistic) F(v float64) float64 {
	if v <= 0 {
		return 0
	}
	f0 := l.raw(0)
	return (l.raw(v) - f0) / (1 - f0)
}

// Density implements Demand.
func (l Logistic) Density(v float64) float64 {
	if v < 0 {
		return 0
	}
	e := math.Exp(-(v - l.Mid) / l.S)
	return e / (l.S * (1 + e) * (1 + e)) / (1 - l.raw(0))
}

// Max implements Demand.
func (l Logistic) Max() float64 { return l.Mid + 40*l.S }
