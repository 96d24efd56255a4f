package htuning

import (
	"fmt"
	"math"
	"sync"
)

// raParallelMin is the smallest candidate count worth fanning across
// goroutines; below it the spawn overhead exceeds the (mostly cached)
// estimator lookups.
const raParallelMin = 4

// candidateWorkers picks the pool size for n independent candidate
// evaluations: inline below raParallelMin, GOMAXPROCS otherwise.
func candidateWorkers(n int) int {
	if n < raParallelMin {
		return 1
	}
	return parallelWorkers(0)
}

// RepetitionResult is the outcome of a Scenario II/III solver: the uniform
// per-repetition price of each group, plus the solver's estimate of its own
// objective for inspection.
type RepetitionResult struct {
	Prices    []int   // per-repetition price per group
	Objective float64 // solver objective at Prices (Σ E_i for RA, closeness for HA)
	Spent     int     // budget units consumed
}

// Allocation materializes the uniform per-group prices into a full
// repetition-level allocation for p.
func (r RepetitionResult) Allocation(p Problem) (Allocation, error) {
	return NewUniformAllocation(p, r.Prices)
}

// SolveRepetition implements Algorithm 2 (RA) for Scenario II: tasks share
// one difficulty but are grouped by repetition count, and the objective is
// the sum over groups of the expected Phase-1 group latency
// Σ_i E[max of n_i Erlang(k_i, λo(p_i))].
//
// Every group starts at one unit per repetition; the remaining budget is
// spent one price increment at a time — the argmin step of the paper's
// Algorithm 2. Two natural greedy rules exist for picking the increment
// when unit costs u_i differ, and neither dominates:
//
//   - greatest absolute gain E_i(p_i) − E_i(p_i+1): the paper's literal
//     reading; right when the budget only fits a few chunky steps (a
//     knapsack effect), and it tends to keep the groups' latencies
//     balanced, which the job's true E[max] rewards;
//   - greatest gain per budget unit (… / u_i): matches the continuous
//     optimum of the surrogate Σ E_i on long runs, but can starve a
//     group whose steps are expensive — better surrogate, worse job.
//
// SolveRepetition therefore runs both rules and keeps the candidate with
// the smaller exact job latency E[max] (ties go to the paper's absolute
// rule); Objective still reports the surrogate of the chosen allocation,
// and the exact surrogate optimum ships as SolveRepetitionDP. E_i(p) is
// convex decreasing in p for every shipped rate model, which is what
// makes either greedy sound; both passes and the final scoring share
// est's memoized integrals.
func SolveRepetition(est *Estimator, p Problem) (RepetitionResult, error) {
	if err := p.Validate(); err != nil {
		return RepetitionResult{}, err
	}
	if est == nil {
		est = NewEstimator()
	}
	// The two greedy passes and the two exact scorings are independent
	// and share est's concurrency-safe memo, so each pair runs on two
	// goroutines; the second pass mostly hits integrals the first one
	// cached.
	var abs, perCost RepetitionResult
	var absErr, perErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		perCost, perErr = solveRepetitionGreedy(est, p, true)
	}()
	abs, absErr = solveRepetitionGreedy(est, p, false)
	wg.Wait()
	if absErr != nil {
		return RepetitionResult{}, absErr
	}
	if perErr != nil {
		return RepetitionResult{}, perErr
	}
	samePrices := true
	for i := range abs.Prices {
		if abs.Prices[i] != perCost.Prices[i] {
			samePrices = false
			break
		}
	}
	if samePrices {
		return abs, nil
	}
	var absJob, perCostJob float64
	var absJobErr, perJobErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		perCostJob, perJobErr = est.JobExpectedLatency(p.Groups, perCost.Prices, PhaseOnHold)
	}()
	absJob, absJobErr = est.JobExpectedLatency(p.Groups, abs.Prices, PhaseOnHold)
	wg.Wait()
	if absJobErr != nil {
		return RepetitionResult{}, absJobErr
	}
	if perJobErr != nil {
		return RepetitionResult{}, perJobErr
	}
	if perCostJob < absJob {
		return perCost, nil
	}
	return abs, nil
}

// solveRepetitionGreedy runs one greedy pass; costAware selects the
// per-budget-unit gain rule.
//
// The pass computes incremental deltas: current[i] and next[i] hold
// E_i at the group's price and price+1, and only the group raised last
// step has its pair refreshed — every other group's gain is unchanged,
// so the argmin re-reads two cached floats instead of re-walking the
// allocation through the estimator (a shard-locked LRU hit per group
// per step in the reference path). Working slices come from a pooled
// scratch; the winning price vector is copied out before the scratch is
// recycled. Bit-identical to solveRepetitionGreedyReference: the same
// estimator values feed the same comparisons in the same group order.
func solveRepetitionGreedy(est *Estimator, p Problem, costAware bool) (RepetitionResult, error) {
	n := len(p.Groups)
	sc := raScratchPool.Get()
	defer raScratchPool.Put(sc)
	prices := intScratch(&sc.prices, n)
	costs := intScratch(&sc.costs, n)
	current := floatScratch(&sc.current, n)
	next := floatScratch(&sc.next, n)
	spent := 0
	for i, g := range p.Groups {
		prices[i] = 1
		costs[i] = g.UnitCost()
		spent += costs[i]
	}
	// Evaluate every group's starting latency concurrently — on a cold
	// cache these are n independent E[max] integrals.
	if err := parallelEach(n, candidateWorkers(n), func(i int) error {
		v, err := est.GroupPhase1Mean(p.Groups[i], prices[i])
		if err != nil {
			return err
		}
		current[i] = v
		return nil
	}); err != nil {
		return RepetitionResult{}, err
	}
	remaining := p.Budget - spent
	// Evaluate the affordable groups' next-price latencies once, also
	// fanned (cold-cache integrals). remaining only ever decreases, so a
	// group unaffordable now is unaffordable forever and its next slot
	// is never read.
	if err := parallelEach(n, candidateWorkers(n), func(i int) error {
		if costs[i] > remaining {
			return nil
		}
		v, err := est.GroupPhase1Mean(p.Groups[i], prices[i]+1)
		if err != nil {
			return err
		}
		next[i] = v
		return nil
	}); err != nil {
		return RepetitionResult{}, err
	}
	for {
		// Argmin over the affordable candidates in group order — the
		// same comparison sequence as the reference pass, fed by the
		// same (cached, pure) estimator values.
		bestI := -1
		bestGain := 0.0
		any := false
		for i := range p.Groups {
			if costs[i] > remaining {
				continue
			}
			any = true
			gain := current[i] - next[i]
			if costAware {
				gain /= float64(costs[i])
			}
			if gain > bestGain+1e-15 {
				bestGain = gain
				bestI = i
			}
		}
		if !any || bestI < 0 || bestGain <= 0 {
			break
		}
		prices[bestI]++
		current[bestI] = next[bestI]
		remaining -= costs[bestI]
		spent += costs[bestI]
		// Only the raised group's delta changed; refresh it if it can
		// still afford another step.
		if costs[bestI] <= remaining {
			v, err := est.GroupPhase1Mean(p.Groups[bestI], prices[bestI]+1)
			if err != nil {
				return RepetitionResult{}, err
			}
			next[bestI] = v
		}
	}
	obj := 0.0
	for _, v := range current {
		obj += v
	}
	out := make([]int, n)
	copy(out, prices)
	return RepetitionResult{Prices: out, Objective: obj, Spent: spent}, nil
}

// SolveRepetitionDP solves the Scenario II objective exactly with a
// multiple-choice knapsack dynamic program over the budget: it considers
// every uniform per-group price vector with Σ u_i·p_i ≤ B and returns the
// one minimizing Σ_i E_i(p_i). Runtime O(Σ_i P_i · B) where P_i is the
// number of affordable price levels of group i; it exists to certify
// SolveRepetition and for ablation benchmarks.
func SolveRepetitionDP(est *Estimator, p Problem) (RepetitionResult, error) {
	if err := p.Validate(); err != nil {
		return RepetitionResult{}, err
	}
	if est == nil {
		est = NewEstimator()
	}
	n := len(p.Groups)
	B := p.Budget

	const inf = math.MaxFloat64
	// All DP state lives in a pooled scratch: the two rolling value rows
	// (swapped instead of reallocated per group), the per-group latency
	// table, and one flat n×(B+1) back-pointer matrix in place of a
	// fresh pick slice per group. Recycled cells are rewritten before
	// every read: value rows are re-filled with inf per group, and the
	// back-walk only visits spends whose value is finite — which implies
	// their back-pointer was stored this call.
	sc := dpScratchPool.Get()
	defer dpScratchPool.Put(sc)
	// best[b] = minimal Σ E over groups processed so far spending exactly b.
	best := floatScratch(&sc.best, B+1)
	next := floatScratch(&sc.next, B+1)
	choice := intScratch(&sc.choice, n*(B+1)) // choice[i*(B+1)+b] = price of group i in the optimum of prefix i at spend b
	for b := range best {
		best[b] = inf
	}
	best[0] = 0

	for i, g := range p.Groups {
		u := g.UnitCost()
		maxPrice := (B - (p.MinBudget() - u)) / u // leave 1 unit/rep for the others
		if maxPrice < 1 {
			return RepetitionResult{}, fmt.Errorf("%w: group %d cannot afford price 1", ErrBudgetTooSmall, i)
		}
		// The price-level latencies are independent integrals — the DP's
		// dominant cost on a cold cache — so they fan across workers.
		lat := floatScratch(&sc.lat, maxPrice+1)
		if err := parallelEach(maxPrice, candidateWorkers(maxPrice), func(pi int) error {
			v, err := est.GroupPhase1Mean(g, pi+1)
			if err != nil {
				return err
			}
			lat[pi+1] = v
			return nil
		}); err != nil {
			return RepetitionResult{}, err
		}
		pick := choice[i*(B+1) : (i+1)*(B+1)]
		for b := range next {
			next[b] = inf
		}
		for b := 0; b <= B; b++ {
			if best[b] == inf {
				continue
			}
			for price := 1; price <= maxPrice; price++ {
				nb := b + u*price
				if nb > B {
					break
				}
				cand := best[b] + lat[price]
				if cand < next[nb] {
					next[nb] = cand
					pick[nb] = price
				}
			}
		}
		best, next = next, best
	}

	// Find the cheapest spend achieving the global minimum.
	bestB, bestV := -1, inf
	for b := 0; b <= B; b++ {
		if best[b] < bestV-1e-15 {
			bestV = best[b]
			bestB = b
		}
	}
	if bestB < 0 {
		return RepetitionResult{}, fmt.Errorf("%w: no feasible allocation", ErrBudgetTooSmall)
	}
	// Walk choices backwards to recover prices.
	prices := make([]int, n)
	b := bestB
	for i := n - 1; i >= 0; i-- {
		price := choice[i*(B+1)+b]
		if price < 1 {
			return RepetitionResult{}, fmt.Errorf("htuning: internal: broken DP back-pointer at group %d spend %d", i, b)
		}
		prices[i] = price
		b -= p.Groups[i].UnitCost() * price
	}
	return RepetitionResult{Prices: prices, Objective: bestV, Spent: bestB}, nil
}
