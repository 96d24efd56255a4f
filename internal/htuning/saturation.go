package htuning

import (
	"fmt"
)

// The paper's synthetic evaluation closes with two findings (Sec 5.1):
// the tuning is robust to non-linearity, and it is sensitive to the
// price–rate relationship — "when lambda is sensitive to the change of
// price, the on-hold latency drops sharply with the growing price. Then
// the overall latency is determined by the processing time and it's
// unnecessary to keep on increasing the price." This file turns that
// observation into a queryable diagnostic.

// PricePoint is one step of a marginal-return curve.
type PricePoint struct {
	// Price is the uniform per-repetition price evaluated.
	Price int
	// Latency is the group's expected wall-clock latency at Price.
	Latency float64
	// Marginal is Latency(Price−1) − Latency(Price), the improvement the
	// last price unit bought (0 at the first point).
	Marginal float64
}

// SaturationResult describes where extra payment stops paying for itself.
type SaturationResult struct {
	// Curve is the marginal-return curve from price 1 upward.
	Curve []PricePoint
	// SaturationPrice is the smallest price whose marginal improvement
	// fell below the requested fraction of the group's processing-phase
	// latency, or 0 if the scan ended first.
	SaturationPrice int
	// ProcessingFloor is the group's expected processing latency — the
	// component no payment can reduce, and the natural yardstick for
	// "not worth it anymore".
	ProcessingFloor float64
}

// Saturated reports whether a saturation price was found within the scan.
func (s SaturationResult) Saturated() bool { return s.SaturationPrice > 0 }

// SaturationScan walks the group's expected wall-clock latency over
// uniform prices 1..maxPrice and finds where the marginal improvement of
// one more unit drops below frac × the processing floor (frac of, say,
// 0.01 means "the last unit bought less than 1% of the irreducible
// processing latency"). The curve is returned whole so callers can plot
// diminishing returns; scanning stops early once saturation is found.
func SaturationScan(est *Estimator, g Group, maxPrice int, frac float64) (SaturationResult, error) {
	if err := g.Validate(); err != nil {
		return SaturationResult{}, err
	}
	if est == nil {
		est = NewEstimator()
	}
	if maxPrice < 2 {
		return SaturationResult{}, fmt.Errorf("htuning: saturation scan needs maxPrice >= 2, got %d", maxPrice)
	}
	if !(frac > 0) {
		return SaturationResult{}, fmt.Errorf("htuning: saturation fraction must be positive, got %v", frac)
	}
	floor, err := est.GroupPhase2Mean(g)
	if err != nil {
		return SaturationResult{}, err
	}
	res := SaturationResult{ProcessingFloor: floor}
	threshold := frac * floor
	prev := 0.0
	for price := 1; price <= maxPrice; price++ {
		lat, err := est.GroupTotalMean(g, price)
		if err != nil {
			return SaturationResult{}, err
		}
		pt := PricePoint{Price: price, Latency: lat}
		if price > 1 {
			pt.Marginal = prev - lat
			if pt.Marginal < threshold {
				res.Curve = append(res.Curve, pt)
				res.SaturationPrice = price
				return res, nil
			}
		}
		res.Curve = append(res.Curve, pt)
		prev = lat
	}
	return res, nil
}
