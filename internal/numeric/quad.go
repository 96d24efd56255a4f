package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConverge is returned when an iterative routine exhausts its budget
// before reaching the requested tolerance.
var ErrNoConverge = errors.New("numeric: did not converge")

// DefaultTol is the absolute/relative tolerance used by the convenience
// wrappers that do not take an explicit tolerance.
const DefaultTol = 1e-10

// maxAdaptiveDepth bounds the recursion of the adaptive Simpson integrator.
// 48 halvings shrink any finite interval below the spacing of float64
// values, so deeper recursion can never refine the estimate.
const maxAdaptiveDepth = 48

// Integrate computes the definite integral of f over [a, b] with adaptive
// Simpson quadrature to absolute tolerance tol. It handles a > b by sign
// reversal. The integrand must be finite on the interval.
func Integrate(f func(float64) float64, a, b, tol float64) (float64, error) {
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0, fmt.Errorf("numeric: Integrate: NaN bound [%v, %v]", a, b)
	}
	if a == b {
		return 0, nil
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	// Pre-split into uniform panels before adapting: plain adaptive Simpson
	// converges prematurely when its three initial samples all miss a
	// narrow feature (integrand looks identically zero at depth 0).
	const panels = 16
	type panel struct {
		a, b, fa, fm, fb, whole float64
	}
	parts := make([]panel, panels)
	h := (b - a) / panels
	scale := 0.0
	for i := range parts {
		pa := a + float64(i)*h
		pb := pa + h
		fa, fm, fb := f(pa), f((pa+pb)/2), f(pb)
		whole := simpson(pa, pb, fa, fm, fb)
		parts[i] = panel{pa, pb, fa, fm, fb, whole}
		scale += math.Abs(whole)
	}
	if scale == 0 {
		scale = math.SmallestNonzeroFloat64
	}
	sum := NewKahan()
	var firstErr error
	for _, p := range parts {
		v, err := adaptiveSimpson(f, p.a, p.b, p.fa, p.fm, p.fb, p.whole, tol/panels, scale, maxAdaptiveDepth)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		sum.Add(v)
	}
	return sign * sum.Sum(), firstErr
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

// adaptiveSimpson refines [a, b] until the Richardson correction delta/15
// is below tol, can no longer change the global integral estimate scale
// (the Gander–Gautschi roundoff criterion), or the recursion budget runs
// out. Without the scale criterion, roundoff-driven delta shrinks at
// exactly the rate the per-level tolerance halves, so on wide panels with
// tight absolute tolerances the recursion would expand to its full
// 2^depth nodes — observed as a multi-minute stall integrating latency
// survival curves with clock rates around 1e-7.
func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol, scale float64, depth int) (float64, error) {
	m := (a + b) / 2
	if !(a < m && m < b) {
		// Interval is at float64 resolution; nothing left to refine.
		return whole, nil
	}
	lm, rm := (a+m)/2, (m+b)/2
	flm, frm := f(lm), f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	converged := math.Abs(delta) <= 15*tol || scale+delta/15 == scale
	if depth <= 0 {
		if !converged {
			return left + right + delta/15, ErrNoConverge
		}
		return left + right + delta/15, nil
	}
	if converged {
		// Richardson extrapolation: one order higher than plain Simpson.
		return left + right + delta/15, nil
	}
	lv, lerr := adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, scale, depth-1)
	rv, rerr := adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, scale, depth-1)
	if lerr != nil {
		return lv + rv, lerr
	}
	return lv + rv, rerr
}

// IntegrateToInf computes the improper integral of f over [a, +inf).
// The tail is covered by geometrically growing panels [a, a+1], [a+1, a+2],
// [a+2, a+4], ..., each integrated adaptively, stopping once several
// consecutive panels contribute nothing relative to the accumulated total.
// This locates integrand mass wherever it sits (near a, or far out as for
// high-shape Erlang densities) without a scale hint from the caller.
// f must decay to zero fast enough for the integral to exist; exponential
// tails, as in all latency distributions here, are fine.
func IntegrateToInf(f func(float64) float64, a, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	const (
		maxPanels  = 80 // covers widths beyond 1e18: any practical latency scale
		quietLimit = 4  // consecutive negligible panels before stopping
	)
	sum := NewKahan()
	var firstErr error
	lo := a
	width := 1.0
	quiet := 0
	for i := 0; i < maxPanels; i++ {
		hi := lo + width
		v, err := Integrate(f, lo, hi, tol/8)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		sum.Add(v)
		scale := math.Abs(sum.Sum())
		if scale < 1 {
			scale = 1
		}
		if math.Abs(v) <= tol*scale {
			quiet++
			if quiet >= quietLimit && sum.Sum() != 0 {
				return sum.Sum(), firstErr
			}
			if quiet >= quietLimit*8 {
				// Integrand appears to be identically zero.
				return sum.Sum(), firstErr
			}
		} else {
			quiet = 0
		}
		lo = hi
		width *= 2
	}
	return sum.Sum(), firstErr
}
