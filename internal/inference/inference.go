// Package inference estimates the HPU running parameters of "Tuning
// Crowdsourced Human Computation" (Sec 3.3): the on-hold clock rate λo at
// a given price, the processing clock rate λp, and the Linearity
// Hypothesis fit λo(c) = k·c + b.
//
// Two probe methodologies from the paper are implemented, both with the
// maximum-likelihood estimator λ̂ = N/T₀ (Appendix A):
//
//   - Fixed Period: publish probe tasks, wait a fixed horizon T₀, count
//     the N acceptances;
//   - Random Period: publish probe tasks, stop once N are accepted, note
//     the elapsed T₀ (optionally bias-corrected by (N−1)/N).
//
// Belief is the single site where observed traces become a published
// rate model: it holds the per-price aggregates behind the MLE, applies
// the one record filter, fits the Linearity Hypothesis and runs the one
// rate-model guard (GuardFit). Campaigns, the serving layer's ingest and
// merged-fit endpoints, and the cluster merger all publish through it.
package inference

import (
	"fmt"

	"hputune/internal/market"
	"hputune/internal/numeric"
)

// RateEstimate is a single estimated clock rate.
type RateEstimate struct {
	Rate   float64 // λ̂
	N      int     // events observed
	Period float64 // observation period T₀
}

// EstimateFixedPeriod applies the fixed-period MLE: n events observed over
// the horizon period, λ̂ = n/period.
func EstimateFixedPeriod(n int, period float64) (RateEstimate, error) {
	if n < 0 {
		return RateEstimate{}, fmt.Errorf("inference: negative event count %d", n)
	}
	if !(period > 0) {
		return RateEstimate{}, fmt.Errorf("inference: period must be positive, got %v", period)
	}
	return RateEstimate{Rate: float64(n) / period, N: n, Period: period}, nil
}

// EstimateRandomPeriod applies the random-period MLE: observation stopped
// at the n-th event after elapsed period. With bias correction (Appendix A)
// the estimate is (n−1)/period; without, n/period.
func EstimateRandomPeriod(n int, period float64, biasCorrect bool) (RateEstimate, error) {
	if n < 1 {
		return RateEstimate{}, fmt.Errorf("inference: need at least one event, got %d", n)
	}
	if !(period > 0) {
		return RateEstimate{}, fmt.Errorf("inference: period must be positive, got %v", period)
	}
	num := float64(n)
	if biasCorrect {
		num = float64(n - 1)
	}
	return RateEstimate{Rate: num / period, N: n, Period: period}, nil
}

// EstimateFromDurations is the MLE for iid Exp(λ) observations:
// λ̂ = n / Σ durations. The paper's probe latencies are exactly this shape.
func EstimateFromDurations(durations []float64) (RateEstimate, error) {
	if len(durations) == 0 {
		return RateEstimate{}, fmt.Errorf("inference: no durations")
	}
	total := numeric.NewKahan()
	for i, d := range durations {
		if !(d >= 0) {
			return RateEstimate{}, fmt.Errorf("inference: duration %d is %v, need >= 0", i, d)
		}
		total.Add(d)
	}
	if total.Sum() <= 0 {
		return RateEstimate{}, fmt.Errorf("inference: all durations zero")
	}
	return RateEstimate{
		Rate:   float64(len(durations)) / total.Sum(),
		N:      len(durations),
		Period: total.Sum(),
	}, nil
}

// SplitPhases recovers the processing rate from an overall-rate estimate
// and an on-hold estimate, following the paper's decomposition
// λ̂p = λ̂ − λ̂o (Sec 3.3.1). It fails when the on-hold estimate exceeds the
// overall one — observational noise that the caller must handle by
// collecting more samples.
func SplitPhases(overall, onhold RateEstimate) (RateEstimate, error) {
	rate := overall.Rate - onhold.Rate
	if !(rate > 0) {
		return RateEstimate{}, fmt.Errorf("inference: overall rate %v not above on-hold rate %v; collect more probe samples", overall.Rate, onhold.Rate)
	}
	return RateEstimate{Rate: rate, N: overall.N, Period: overall.Period}, nil
}

// Probe publishes probe tasks on a marketplace simulation and measures
// acceptance. Probe tasks follow the paper's design: workers submit
// immediately, so the processing latency is negligible (the market class
// should carry a very large ProcRate).
type Probe struct {
	// Class is the probe task class posted on the market.
	Class *market.TaskClass
	// Tasks is the number of probe tasks posted per run.
	Tasks int
	// Seed seeds each probe run's marketplace.
	Seed uint64
}

// validate checks the probe setup.
func (p Probe) validate() error {
	if err := p.Class.Validate(); err != nil {
		return err
	}
	if p.Tasks < 1 {
		return fmt.Errorf("inference: probe needs at least one task, got %d", p.Tasks)
	}
	return nil
}

// RunOnHold posts the probe tasks at the given price, waits for the first
// stopAt acceptances and returns the random-period estimate of λo built
// from the individual on-hold durations. stopAt must not exceed the number
// of tasks posted.
func (p Probe) RunOnHold(price, stopAt int) (RateEstimate, error) {
	if err := p.validate(); err != nil {
		return RateEstimate{}, err
	}
	if stopAt < 1 || stopAt > p.Tasks {
		return RateEstimate{}, fmt.Errorf("inference: stopAt %d outside [1, %d]", stopAt, p.Tasks)
	}
	sim, err := market.New(market.Config{Seed: p.Seed})
	if err != nil {
		return RateEstimate{}, err
	}
	for i := 0; i < p.Tasks; i++ {
		spec := market.TaskSpec{
			ID:        fmt.Sprintf("probe-%d", i),
			Class:     p.Class,
			RepPrices: []int{price},
		}
		if err := sim.Post(spec); err != nil {
			return RateEstimate{}, err
		}
	}
	results, err := sim.Run()
	if err != nil {
		return RateEstimate{}, err
	}
	phases := market.CollectPhases(results)
	if len(phases.OnHold) < stopAt {
		return RateEstimate{}, fmt.Errorf("inference: observed %d acceptances, wanted %d", len(phases.OnHold), stopAt)
	}
	return EstimateFromDurations(phases.OnHold[:stopAt])
}

// LinearityResult is a probe sweep over prices with its least-squares fit
// of λo(c) = Slope·c + Intercept — the empirical test of Hypothesis 1.
type LinearityResult struct {
	Prices []float64
	Rates  []float64
	Fit    numeric.LinearFit
}

// SweepLinearity estimates λo at each price with the probe (stopAt
// acceptances per price) and fits the linear price-rate model.
func (p Probe) SweepLinearity(prices []int, stopAt int) (LinearityResult, error) {
	if len(prices) < 2 {
		return LinearityResult{}, fmt.Errorf("inference: need at least 2 prices, got %d", len(prices))
	}
	res := LinearityResult{}
	for i, price := range prices {
		probe := p
		probe.Seed = p.Seed + uint64(i)*0x9e3779b9 // distinct stream per price
		est, err := probe.RunOnHold(price, stopAt)
		if err != nil {
			return LinearityResult{}, fmt.Errorf("inference: price %d: %w", price, err)
		}
		res.Prices = append(res.Prices, float64(price))
		res.Rates = append(res.Rates, est.Rate)
	}
	fit, err := numeric.FitLinear(res.Prices, res.Rates)
	if err != nil {
		return LinearityResult{}, err
	}
	res.Fit = fit
	return res, nil
}
