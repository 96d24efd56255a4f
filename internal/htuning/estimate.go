package htuning

import (
	"fmt"
	"math"

	"hputune/internal/dist"
	"hputune/internal/numeric"
	"hputune/internal/randx"
)

// Phase selects which latency phases an estimate covers.
type Phase int

const (
	// PhaseOnHold covers only the on-hold (acceptance) phase, the part the
	// budget controls. Scenarios I and II tune on this phase alone.
	PhaseOnHold Phase = iota
	// PhaseBoth covers on-hold plus processing, the wall-clock latency.
	PhaseBoth
)

// Estimator computes expected latencies for groups and jobs under the HPU
// model, memoizing the expensive E[max of n Erlang] integrals. The zero
// value is ready to use. An Estimator is safe for concurrent use: the
// memo is a bounded LRU sharded by key hash, each shard behind its own
// mutex, so one estimator can back many solver and simulation goroutines
// without serializing them on a single lock. Since every cached value is
// a pure function of its key, duplicate concurrent computations of the
// same key are benign — both goroutines store the identical float64 —
// and eviction only ever costs a recompute, never a different result.
// The zero value (and NewEstimator) caps the cache at 32 shards ×
// defaultShardCapacity entries; NewEstimatorCapacity picks the bound,
// and CacheStats reports hit/miss/eviction counters.
type Estimator struct {
	shards [estimatorShards]estimatorShard
}

// estimateKind distinguishes the three cached expectations.
type estimateKind uint8

const (
	kindPhase1 estimateKind = iota + 1
	kindPhase2
	kindTotal
)

type estimateKey struct {
	kind     estimateKind
	rateBits uint64
	n, k     int
	procBits uint64
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator { return &Estimator{} }

// float64Bits keys the cache on the raw IEEE bits; rates are positive and
// finite, so bit equality is value equality.
func float64Bits(f float64) uint64 { return math.Float64bits(f) }

// GroupPhase1Mean returns E[max over the group's tasks of the on-hold
// latency], where each task's on-hold latency is Erlang(k, λo(price)):
// the expected Phase-1 completion time of group g at the given uniform
// per-repetition price.
func (e *Estimator) GroupPhase1Mean(g Group, price int) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if price < 1 {
		return 0, fmt.Errorf("htuning: price %d below 1 unit", price)
	}
	rate := g.Type.Accept.Rate(float64(price))
	if !(rate > 0) {
		return 0, fmt.Errorf("htuning: rate model %q returned non-positive rate %v at price %d", g.Type.Accept.Name(), rate, price)
	}
	key := estimateKey{kind: kindPhase1, rateBits: float64Bits(rate), n: g.Tasks, k: g.Reps}
	if v, ok := e.cached(key); ok {
		return v, nil
	}
	base, err := dist.NewErlang(g.Reps, rate)
	if err != nil {
		return 0, err
	}
	v, err := dist.MeanOfMax(g.Tasks, base)
	if err != nil {
		return 0, err
	}
	e.store(key, v)
	return v, nil
}

// GroupPhase2Mean returns E[max over the group's tasks of the processing
// latency], each task's processing latency being Erlang(k, λp). It does
// not depend on price.
func (e *Estimator) GroupPhase2Mean(g Group) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	key := estimateKey{kind: kindPhase2, rateBits: float64Bits(g.Type.ProcRate), n: g.Tasks, k: g.Reps}
	if v, ok := e.cached(key); ok {
		return v, nil
	}
	base, err := dist.NewErlang(g.Reps, g.Type.ProcRate)
	if err != nil {
		return 0, err
	}
	v, err := dist.MeanOfMax(g.Tasks, base)
	if err != nil {
		return 0, err
	}
	e.store(key, v)
	return v, nil
}

// GroupTotalMean returns E[max over the group's tasks of on-hold plus
// processing latency], each task distributed TwoPhaseErlang(k, λo(price),
// λp): the expected wall-clock completion of the group alone.
func (e *Estimator) GroupTotalMean(g Group, price int) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if price < 1 {
		return 0, fmt.Errorf("htuning: price %d below 1 unit", price)
	}
	rate := g.Type.Accept.Rate(float64(price))
	if !(rate > 0) {
		return 0, fmt.Errorf("htuning: rate model %q returned non-positive rate %v at price %d", g.Type.Accept.Name(), rate, price)
	}
	key := estimateKey{kind: kindTotal, rateBits: float64Bits(rate), n: g.Tasks, k: g.Reps, procBits: float64Bits(g.Type.ProcRate)}
	if v, ok := e.cached(key); ok {
		return v, nil
	}
	base, err := dist.NewTwoPhaseErlang(g.Reps, rate, g.Type.ProcRate)
	if err != nil {
		return 0, err
	}
	v, err := dist.MeanOfMax(g.Tasks, base)
	if err != nil {
		return 0, err
	}
	e.store(key, v)
	return v, nil
}

// JobExpectedLatency computes the exact expected completion latency of the
// whole job under a uniform per-group price vector:
//
//	E[max over all tasks] = ∫₀^∞ (1 − Π_i F_i(t)^{n_i}) dt
//
// where F_i is the per-task latency CDF of group i (Erlang for
// PhaseOnHold, TwoPhaseErlang for PhaseBoth). This goes beyond the paper's
// sum-of-group-latencies approximation and is used to score allocation
// strategies fairly in the experiments.
func (e *Estimator) JobExpectedLatency(groups []Group, prices []int, phase Phase) (float64, error) {
	fp := make([]float64, len(prices))
	for i, p := range prices {
		fp[i] = float64(p)
	}
	return e.JobExpectedLatencyFloat(groups, fp, phase)
}

// JobExpectedLatencyFloat is JobExpectedLatency over fractional prices.
// Solvers stay on the discrete payment grid the paper requires ($0.01
// granularity on AMT); fractional prices exist so experiments can score
// idealized baselines (e.g. "half the budget to half the tasks") without
// rounding noise.
func (e *Estimator) JobExpectedLatencyFloat(groups []Group, prices []float64, phase Phase) (float64, error) {
	if len(groups) != len(prices) {
		return 0, fmt.Errorf("htuning: %d prices for %d groups", len(prices), len(groups))
	}
	cdfs := make([]func(float64) float64, len(groups))
	ns := make([]int, len(groups))
	for i, g := range groups {
		if err := g.Validate(); err != nil {
			return 0, err
		}
		if !(prices[i] > 0) {
			return 0, fmt.Errorf("htuning: group %d price %v not positive", i, prices[i])
		}
		rate := g.Type.Accept.Rate(prices[i])
		if !(rate > 0) {
			return 0, fmt.Errorf("htuning: group %d: non-positive rate %v", i, rate)
		}
		var d dist.Distribution
		var err error
		switch phase {
		case PhaseOnHold:
			d, err = dist.NewErlang(g.Reps, rate)
		case PhaseBoth:
			d, err = dist.NewTwoPhaseErlang(g.Reps, rate, g.Type.ProcRate)
		default:
			return 0, fmt.Errorf("htuning: unknown phase %d", phase)
		}
		if err != nil {
			return 0, err
		}
		cdfs[i] = d.CDF
		ns[i] = g.Tasks
	}
	v, err := numeric.IntegrateToInf(func(t float64) float64 {
		prod := 1.0
		for i, cdf := range cdfs {
			f := cdf(t)
			if f == 0 {
				return 1
			}
			prod *= powInt(f, ns[i])
			if prod == 0 {
				return 1
			}
		}
		return 1 - prod
	}, 0, 1e-8)
	if err != nil {
		return v, fmt.Errorf("htuning: job latency integral: %w", err)
	}
	return v, nil
}

// powInt computes x^n for n >= 0 by binary exponentiation.
func powInt(x float64, n int) float64 {
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
		n >>= 1
	}
	return r
}

// SimulateJobLatency estimates E[max over all tasks of the full latency]
// for an arbitrary (possibly non-uniform) allocation by Monte Carlo: each
// task's latency is the sum over its repetitions of Exp(λo(price_rep)) +
// Exp(λp) samples. It returns the sample mean over trials runs.
func SimulateJobLatency(p Problem, a Allocation, phase Phase, trials int, r *randx.Rand) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := a.Validate(p); err != nil {
		return 0, err
	}
	if trials < 1 {
		return 0, fmt.Errorf("htuning: trials must be >= 1, got %d", trials)
	}
	if r == nil {
		return 0, fmt.Errorf("htuning: nil random source")
	}
	return simulateAllocTrials(p, a, phase, trials, r) / float64(trials), nil
}

// simulateAllocTrials runs the inner Monte-Carlo loop of
// SimulateJobLatency for a validated instance and returns the sum of
// per-trial job maxima — the shardable core shared by the serial and
// parallel entry points.
func simulateAllocTrials(p Problem, a Allocation, phase Phase, trials int, r *randx.Rand) float64 {
	sum := numeric.NewKahan()
	for trial := 0; trial < trials; trial++ {
		jobMax := 0.0
		for gi, g := range p.Groups {
			for ti := 0; ti < g.Tasks; ti++ {
				latency := 0.0
				for _, price := range a.RepPrices[gi][ti] {
					rate := g.Type.Accept.Rate(float64(price))
					latency += r.Exp(rate)
					if phase == PhaseBoth {
						latency += r.Exp(g.Type.ProcRate)
					}
				}
				if latency > jobMax {
					jobMax = latency
				}
			}
		}
		sum.Add(jobMax)
	}
	return sum.Sum()
}
