package htuning

import (
	"math"
	"sync"
)

// UtopiaPoint is the pair of independently optimized objectives of
// Scenario III (Definition 4 of the paper):
//
//	O1* — minimal Σ_i E[Phase-1 latency of group i];
//	O2* — minimal max_i (E[Phase-1 of g_i] + E[Phase-2 of g_i]).
type UtopiaPoint struct {
	O1 float64
	O2 float64
}

// HeterogeneousResult extends RepetitionResult with the bi-objective
// diagnostics of Scenario III.
type HeterogeneousResult struct {
	Prices    []int
	O1        float64     // Σ group Phase-1 latencies at Prices
	O2        float64     // max group total latency at Prices
	Utopia    UtopiaPoint // the independently optimal objectives
	Closeness float64     // ‖(O1,O2) − Utopia‖₁ (Definition 6)
	Spent     int
}

// Allocation materializes the per-group prices into a full allocation.
func (r HeterogeneousResult) Allocation(p Problem) (Allocation, error) {
	return NewUniformAllocation(p, r.Prices)
}

// objectives evaluates (O1, O2) for a uniform price vector.
func objectives(est *Estimator, p Problem, prices []int) (o1, o2 float64, err error) {
	o2 = -math.MaxFloat64
	for i, g := range p.Groups {
		e1, err := est.GroupPhase1Mean(g, prices[i])
		if err != nil {
			return 0, 0, err
		}
		e2, err := est.GroupPhase2Mean(g)
		if err != nil {
			return 0, 0, err
		}
		o1 += e1
		if tot := e1 + e2; tot > o2 {
			o2 = tot
		}
	}
	return o1, o2, nil
}

// minimizeO2 finds the minimal achievable O2 = max_i (E1_i(p_i) + C_i)
// within the budget, by binary searching the target over the candidate
// values and checking feasibility (each group independently buys the
// cheapest price reaching the target; feasible iff the costs fit in B).
func minimizeO2(est *Estimator, p Problem) (float64, error) {
	n := len(p.Groups)
	u := make([]int, n)
	c2 := make([]float64, n)
	maxPrice := make([]int, n)
	minB := p.MinBudget()
	for i, g := range p.Groups {
		u[i] = g.UnitCost()
		v, err := est.GroupPhase2Mean(g)
		if err != nil {
			return 0, err
		}
		c2[i] = v
		maxPrice[i] = (p.Budget - (minB - u[i])) / u[i]
	}
	// cheapestFor returns the cheapest total spend such that every group's
	// E1_i + C_i <= target, or -1 when no affordable price reaches it.
	// E1 is decreasing in price for every shipped rate model, so the
	// cheapest target-reaching price is found by binary search — O(log P)
	// estimator lookups per group against the reference's upward scan's
	// Θ(P) — with the exact comparison the scan used, so both locate the
	// same price (the monotonicity parity tests pin this).
	cheapestFor := func(target float64) (int, error) {
		total := 0
		for i, g := range p.Groups {
			reaches := func(price int) (bool, error) {
				e1, err := est.GroupPhase1Mean(g, price)
				if err != nil {
					return false, err
				}
				return e1+c2[i] <= target+1e-12, nil
			}
			if ok, err := reaches(maxPrice[i]); err != nil {
				return 0, err
			} else if !ok {
				return -1, nil
			}
			lo, hi := 1, maxPrice[i]
			for lo < hi {
				mid := lo + (hi-lo)/2
				ok, err := reaches(mid)
				if err != nil {
					return 0, err
				}
				if ok {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			total += u[i] * lo
		}
		return total, nil
	}
	// Bounds: at max affordable prices O2 is the lowest reachable value;
	// at price 1 everywhere it is the highest.
	lo, hi := 0.0, 0.0
	for i, g := range p.Groups {
		e1max, err := est.GroupPhase1Mean(g, maxPrice[i])
		if err != nil {
			return 0, err
		}
		e1min, err := est.GroupPhase1Mean(g, 1)
		if err != nil {
			return 0, err
		}
		if v := e1max + c2[i]; v > lo {
			lo = v
		}
		if v := e1min + c2[i]; v > hi {
			hi = v
		}
	}
	if hi < lo {
		hi = lo
	}
	// lo is achievable only if all groups can simultaneously afford their
	// max prices — generally not. Binary search the smallest feasible target.
	for iter := 0; iter < 60 && hi-lo > 1e-10*(1+hi); iter++ {
		mid := lo + (hi-lo)/2
		spend, err := cheapestFor(mid)
		if err != nil {
			return 0, err
		}
		if spend >= 0 && spend <= p.Budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// Norm selects the distance used by the Closeness. Definition 6 of the
// paper states the general form ‖OP − UP‖ and instantiates it with the
// "first order distance" (L1); the other norms exist for the ablation
// benchmarks of the design choice.
type Norm int

const (
	// NormL1 is the paper's first-order distance |ΔO1| + |ΔO2|.
	NormL1 Norm = iota
	// NormL2 is the Euclidean distance.
	NormL2
	// NormLInf is the Chebyshev distance max(|ΔO1|, |ΔO2|).
	NormLInf
)

// distance evaluates the norm on the two objective gaps.
func (n Norm) distance(dx, dy float64) float64 {
	dx, dy = math.Abs(dx), math.Abs(dy)
	switch n {
	case NormL2:
		return math.Hypot(dx, dy)
	case NormLInf:
		return math.Max(dx, dy)
	default:
		return dx + dy
	}
}

// String implements fmt.Stringer.
func (n Norm) String() string {
	switch n {
	case NormL2:
		return "L2"
	case NormLInf:
		return "Linf"
	default:
		return "L1"
	}
}

// SolveHeterogeneous implements Algorithm 3 (HA) for Scenario III with
// the paper's first-order (L1) Closeness. See SolveHeterogeneousNorm.
func SolveHeterogeneous(est *Estimator, p Problem) (HeterogeneousResult, error) {
	return SolveHeterogeneousNorm(est, p, NormL1)
}

// SolveHeterogeneousNorm implements Algorithm 3 (HA) for Scenario III. It
// computes the Utopia Point (O1*, O2*) — O1* via the exact Scenario II
// dynamic program, O2* via feasibility binary search — then greedily
// spends the budget one price increment at a time, always taking the
// increment that most decreases the Closeness ‖(O1,O2) − UP‖ under the
// chosen norm (Definitions 4–6 of the paper; the paper uses NormL1),
// stopping when no affordable increment improves it.
//
// Candidate scoring is incremental: e1[i] and nextE1[i] hold group i's
// Phase-1 latency at its current price and one unit higher, and only the
// group raised last step has its pair refreshed. A candidate's (O1, O2)
// is then a pure float walk over the arrays — in group order, with the
// reference's exact accumulation — instead of a re-walk of the whole
// price vector through the estimator per candidate per step, which cost
// O(n²) shard-locked cache hits per increment. Bit-identical to
// SolveHeterogeneousNormReference: the parity tests pin it.
func SolveHeterogeneousNorm(est *Estimator, p Problem, norm Norm) (HeterogeneousResult, error) {
	if err := p.Validate(); err != nil {
		return HeterogeneousResult{}, err
	}
	if est == nil {
		est = NewEstimator()
	}
	// The two Utopia-Point objectives are independent optimizations over
	// the same estimator cache; run them on two goroutines (Definition 4
	// fixes each one in isolation, so there is no ordering between them).
	var o1DP RepetitionResult
	var o2Star float64
	var o1Err, o2Err error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		o2Star, o2Err = minimizeO2(est, p)
	}()
	o1DP, o1Err = SolveRepetitionDP(est, p)
	wg.Wait()
	if o1Err != nil {
		return HeterogeneousResult{}, o1Err
	}
	if o2Err != nil {
		return HeterogeneousResult{}, o2Err
	}
	up := UtopiaPoint{O1: o1DP.Objective, O2: o2Star}

	n := len(p.Groups)
	sc := haScratchPool.Get()
	defer haScratchPool.Put(sc)
	prices := intScratch(&sc.prices, n)
	costs := intScratch(&sc.costs, n)
	e1 := floatScratch(&sc.e1, n)
	nextE1 := floatScratch(&sc.nextE1, n)
	c2 := floatScratch(&sc.c2, n)
	spent := 0
	for i, g := range p.Groups {
		prices[i] = 1
		costs[i] = g.UnitCost()
		spent += costs[i]
	}
	// Fill the per-group latency arrays, fanned across workers (on a
	// cold cache each is an independent integral).
	if err := parallelEach(n, candidateWorkers(n), func(i int) error {
		v1, err := est.GroupPhase1Mean(p.Groups[i], prices[i])
		if err != nil {
			return err
		}
		v2, err := est.GroupPhase2Mean(p.Groups[i])
		if err != nil {
			return err
		}
		e1[i], c2[i] = v1, v2
		return nil
	}); err != nil {
		return HeterogeneousResult{}, err
	}
	// score evaluates (closeness, O1, O2) for the current prices with
	// group raised's e1 taken from nextE1 (raised < 0 scores the current
	// vector). The accumulation replicates objectives exactly — O1 via
	// += in group order, O2 via max in group order — so the floats match
	// the reference's bit for bit.
	score := func(raised int) (cl, o1, o2 float64) {
		o2 = -math.MaxFloat64
		for k := 0; k < n; k++ {
			v := e1[k]
			if k == raised {
				v = nextE1[k]
			}
			o1 += v
			if tot := v + c2[k]; tot > o2 {
				o2 = tot
			}
		}
		return norm.distance(o1-up.O1, o2-up.O2), o1, o2
	}
	curCL, curO1, curO2 := score(-1)
	remaining := p.Budget - spent
	// Evaluate the affordable groups' next-price latencies once, also
	// fanned; remaining only decreases, so an unaffordable group's slot
	// is never read.
	if err := parallelEach(n, candidateWorkers(n), func(i int) error {
		if costs[i] > remaining {
			return nil
		}
		v, err := est.GroupPhase1Mean(p.Groups[i], prices[i]+1)
		if err != nil {
			return err
		}
		nextE1[i] = v
		return nil
	}); err != nil {
		return HeterogeneousResult{}, err
	}
	for {
		// Score every affordable one-unit increment and reduce in group
		// order so the tie-breaking matches the reference exactly.
		bestI := -1
		bestCL, bestO1, bestO2 := curCL, curO1, curO2
		any := false
		for i := 0; i < n; i++ {
			if costs[i] > remaining {
				continue
			}
			any = true
			cl, o1, o2 := score(i)
			// Prefer strictly smaller closeness; tie-break on cheaper cost.
			if cl < bestCL-1e-15 || (bestI >= 0 && math.Abs(cl-bestCL) <= 1e-15 && costs[i] < costs[bestI]) {
				bestCL, bestO1, bestO2 = cl, o1, o2
				bestI = i
			}
		}
		if !any || bestI < 0 {
			break
		}
		prices[bestI]++
		remaining -= costs[bestI]
		spent += costs[bestI]
		curCL, curO1, curO2 = bestCL, bestO1, bestO2
		e1[bestI] = nextE1[bestI]
		// Only the raised group's next-price latency changed; refresh it
		// if it can still afford another step.
		if costs[bestI] <= remaining {
			v, err := est.GroupPhase1Mean(p.Groups[bestI], prices[bestI]+1)
			if err != nil {
				return HeterogeneousResult{}, err
			}
			nextE1[bestI] = v
		}
	}
	out := make([]int, n)
	copy(out, prices)
	return HeterogeneousResult{
		Prices:    out,
		O1:        curO1,
		O2:        curO2,
		Utopia:    up,
		Closeness: curCL,
		Spent:     spent,
	}, nil
}
