package inference

import (
	"fmt"
	"math"

	"hputune/internal/market"
	"hputune/internal/numeric"
	"hputune/internal/pricing"
)

// FitInfo describes one published price→rate fit: the document shape
// campaign rounds, ingest replies and stats replies all carry.
type FitInfo struct {
	Slope     float64 `json:"slope"`
	Intercept float64 `json:"intercept"`
	R2        float64 `json:"r2"`
	// Prices is how many distinct price levels back the fit.
	Prices int `json:"prices"`
}

// Model returns the linear rate model λo(c) = Slope·c + Intercept.
func (f FitInfo) Model() pricing.Linear {
	return pricing.Linear{K: f.Slope, B: f.Intercept}
}

// Candidate is one least-squares fit of the Linearity Hypothesis (a
// numeric.LinearFit) with the number of distinct price levels behind
// it. It is also the journaled form of a published fit (store.FitRecord),
// so its JSON layout is a WAL format.
type Candidate struct {
	Slope     float64 `json:"slope"`
	Intercept float64 `json:"intercept"`
	R2        float64 `json:"r2"`
	SE        float64 `json:"se"`
	N         int     `json:"n"`
	Prices    int     `json:"prices"`
}

// Info describes the candidate in the published document shape.
func (c Candidate) Info() FitInfo {
	return FitInfo{Slope: c.Slope, Intercept: c.Intercept, R2: c.R2, Prices: c.Prices}
}

// GuardFit checks a candidate against the contract every solver assumes
// of a rate model: non-decreasing in price and positive from price 1 on.
// It returns "" for a publishable fit and otherwise the pending reason
// the publisher reports while its previous model stays live — a drifted
// or noisy trace can least-squares into a line that breaks the contract.
func GuardFit(c Candidate) string {
	if c.Slope < 0 || !(c.Info().Model().Rate(1) > 0) {
		fit := numeric.LinearFit{Slope: c.Slope, Intercept: c.Intercept, R2: c.R2, SE: c.SE, N: c.N}
		return fmt.Sprintf("fit %s violates the rate-model contract (need slope >= 0 and a positive rate at price 1); keeping the previous fit", fit)
	}
	return ""
}

// Belief is the per-price MLE state behind one published rate model:
// the additive sufficient statistic of every observation folded in,
// one record at a time (a campaign's rounds) or as per-price deltas (an
// ingest batch, a replayed WAL record, a cluster merge). Every fold →
// fit → guard path goes through it, so the record filter and the
// rate-model guard exist once. A nil Belief is empty; a Belief is not
// safe for concurrent use.
type Belief map[int]PriceAggregate

// Observe folds one record's on-hold time into its price's aggregate.
// The record filter lives here: a price in the model domain and a
// finite, non-negative on-hold time (one +Inf would push its price's
// add-only total to +Inf and zero that MLE rate for good). A record
// outside it is dropped and the reason returned.
func (b *Belief) Observe(rec market.RepRecord) error {
	if rec.Price < 1 {
		return fmt.Errorf("price %d below 1 unit (model domain is c >= 1)", rec.Price)
	}
	d := rec.OnHold()
	if !(d >= 0) || math.IsInf(d, 1) {
		return fmt.Errorf("on-hold duration %v is not a finite non-negative number", d)
	}
	if *b == nil {
		*b = make(Belief)
	}
	agg := (*b)[rec.Price]
	agg.Add(1, d)
	(*b)[rec.Price] = agg
	return nil
}

// CheckMerge returns the error Merge(deltas) would fail with, without
// changing b: a delta outside the record domain, or one whose total
// would sum past the float64 range.
func (b Belief) CheckMerge(deltas Belief) error {
	for price, d := range deltas {
		if price < 1 {
			return fmt.Errorf("price %d below 1 unit (model domain is c >= 1)", price)
		}
		if d.N < 0 || !(d.Total >= 0) || math.IsInf(d.Total, 1) {
			return fmt.Errorf("price %d: aggregate delta (%d, %v) is not finite non-negative", price, d.N, d.Total)
		}
		if math.IsInf(b[price].Total+d.Total, 1) {
			return fmt.Errorf("durations at price %d sum past the float64 range", price)
		}
	}
	return nil
}

// Merge adds per-price deltas: all of them, or none when CheckMerge
// refuses one. Float addition is not associative, so callers that need
// bit-identical totals merge the same deltas in the same order.
func (b *Belief) Merge(deltas Belief) error {
	if err := b.CheckMerge(deltas); err != nil {
		return err
	}
	if *b == nil && len(deltas) > 0 {
		*b = make(Belief, len(deltas))
	}
	for price, d := range deltas {
		agg := (*b)[price]
		agg.Add(d.N, d.Total)
		(*b)[price] = agg
	}
	return nil
}

// Fit fits the Linearity Hypothesis over the aggregates and runs the
// guard. pending is "" when the candidate may be published and says why
// not otherwise. The candidate is the zero value when no line could be
// fitted (fewer than two usable price levels) and the fitted line,
// refused or not, otherwise.
func (b Belief) Fit() (cand Candidate, pending string) {
	res, err := FitAggregates(b)
	if err != nil {
		return Candidate{}, err.Error()
	}
	f := res.Fit
	cand = Candidate{Slope: f.Slope, Intercept: f.Intercept, R2: f.R2, SE: f.SE, N: f.N, Prices: len(res.Prices)}
	return cand, GuardFit(cand)
}
