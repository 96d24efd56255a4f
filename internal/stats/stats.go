// Package stats provides the statistical validation substrate for the
// reproduction of "Tuning Crowdsourced Human Computation" (Cao et al.,
// ICDE 2017): goodness-of-fit tests for the exponential latency model
// the paper assumes (Sec 3.1–3.2), and exact confidence intervals for
// the clock-rate MLE λ̂ = N/T₀ (Sec 3.3, Appendix A).
//
// The paper justifies its model empirically ("the arrival epochs of the
// workers exhibit linearity, indicating the suitability of the Poisson
// Process Model", Fig 3); this package supplies the machinery to make
// that check quantitative against the simulated marketplace: a
// Kolmogorov–Smirnov test against a hypothesized CDF, a Lilliefors-style
// Monte-Carlo test for exponentiality with estimated rate, and a binned
// chi-square test.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an unsorted sample,
// interpolating linearly between closest ranks (type-7, the R default).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: empty sample")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0, 1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1], nil
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac, nil
}
