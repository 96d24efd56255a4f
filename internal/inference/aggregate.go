package inference

import (
	"fmt"
	"sort"

	"hputune/internal/numeric"
)

// PriceAggregate is the sufficient statistic of the exponential MLE for
// one price level: the number of observed on-hold durations and their
// sum. Aggregates are additive, so an online ingest loop can keep one
// per price and merge each new trace batch in O(1) memory regardless of
// how many records have ever been ingested.
type PriceAggregate struct {
	N     int     // observations at this price
	Total float64 // Σ on-hold durations
}

// Add merges n observations summing to total into the aggregate.
func (a *PriceAggregate) Add(n int, total float64) {
	a.N += n
	a.Total += total
}

// Rate returns the MLE λ̂o = N/Σ at this price (Appendix A of the paper,
// the iid-exponential form of EstimateFromDurations).
func (a PriceAggregate) Rate() (float64, error) {
	if a.N < 1 {
		return 0, fmt.Errorf("inference: aggregate has no observations")
	}
	if !(a.Total > 0) {
		return 0, fmt.Errorf("inference: aggregate durations sum to %v, need > 0", a.Total)
	}
	return float64(a.N) / a.Total, nil
}

// FitAggregates computes the per-price MLE rates and fits the Linearity
// Hypothesis λo(c) = Slope·c + Intercept across them — the offline-trace
// counterpart of Probe.SweepLinearity. At least two distinct prices with
// a usable rate are required; buckets whose durations sum to zero carry
// no rate information (λ̂ would be infinite) and are skipped rather than
// allowed to poison the fit forever. Prices (and Rates) come back
// sorted by price so the result is deterministic regardless of map
// order.
func FitAggregates(byPrice map[int]PriceAggregate) (LinearityResult, error) {
	prices := make([]int, 0, len(byPrice))
	for price, agg := range byPrice {
		if agg.N > 0 && agg.Total > 0 {
			prices = append(prices, price)
		}
	}
	if len(prices) < 2 {
		return LinearityResult{}, fmt.Errorf("inference: need observations at >= 2 distinct prices, got %d", len(prices))
	}
	sort.Ints(prices)
	res := LinearityResult{
		Prices: make([]float64, len(prices)),
		Rates:  make([]float64, len(prices)),
	}
	for i, price := range prices {
		rate, err := byPrice[price].Rate()
		if err != nil {
			return LinearityResult{}, fmt.Errorf("inference: price %d: %w", price, err)
		}
		res.Prices[i] = float64(price)
		res.Rates[i] = rate
	}
	fit, err := numeric.FitLinear(res.Prices, res.Rates)
	if err != nil {
		return LinearityResult{}, err
	}
	res.Fit = fit
	return res, nil
}
