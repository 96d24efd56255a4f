package htuning

import (
	"fmt"
	"math"
)

// The brute-force oracles the RA and HA test suites compare the
// solvers against.

// EnumerateRepetition brute-forces the Scenario II objective over all
// feasible uniform price vectors. Exponential; only for tests and tiny
// instances (it refuses more than maxStates states).
func EnumerateRepetition(est *Estimator, p Problem, maxStates int) (RepetitionResult, error) {
	if err := p.Validate(); err != nil {
		return RepetitionResult{}, err
	}
	if est == nil {
		est = NewEstimator()
	}
	n := len(p.Groups)
	prices := make([]int, n)
	bestPrices := make([]int, n)
	bestObj := math.MaxFloat64
	bestSpent := 0
	states := 0

	var rec func(i, spent int, acc float64) error
	rec = func(i, spent int, acc float64) error {
		if acc >= bestObj {
			return nil // dominated: E_i > 0 always
		}
		if i == n {
			bestObj = acc
			copy(bestPrices, prices)
			bestSpent = spent
			return nil
		}
		g := p.Groups[i]
		u := g.UnitCost()
		restMin := 0
		for j := i + 1; j < n; j++ {
			restMin += p.Groups[j].UnitCost()
		}
		for price := 1; spent+u*price+restMin <= p.Budget; price++ {
			states++
			if states > maxStates {
				return fmt.Errorf("htuning: EnumerateRepetition exceeded %d states", maxStates)
			}
			v, err := est.GroupPhase1Mean(g, price)
			if err != nil {
				return err
			}
			if err := rec(i+1, spent+u*price, acc+v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0, 0); err != nil {
		return RepetitionResult{}, err
	}
	if bestObj == math.MaxFloat64 {
		return RepetitionResult{}, fmt.Errorf("%w: no feasible allocation", ErrBudgetTooSmall)
	}
	return RepetitionResult{Prices: bestPrices, Objective: bestObj, Spent: bestSpent}, nil
}

// EnumerateHeterogeneous brute-forces the Scenario III closeness over all
// feasible uniform price vectors, for tests on small instances. The Utopia
// Point is computed the same way as in SolveHeterogeneous so closeness
// values are comparable.
func EnumerateHeterogeneous(est *Estimator, p Problem, maxStates int) (HeterogeneousResult, error) {
	if err := p.Validate(); err != nil {
		return HeterogeneousResult{}, err
	}
	if est == nil {
		est = NewEstimator()
	}
	o1DP, err := SolveRepetitionDP(est, p)
	if err != nil {
		return HeterogeneousResult{}, err
	}
	o2Star, err := minimizeO2(est, p)
	if err != nil {
		return HeterogeneousResult{}, err
	}
	up := UtopiaPoint{O1: o1DP.Objective, O2: o2Star}

	n := len(p.Groups)
	prices := make([]int, n)
	for i := range prices {
		prices[i] = 1
	}
	best := HeterogeneousResult{Closeness: math.MaxFloat64, Utopia: up}
	states := 0
	var rec func(i, spent int) error
	rec = func(i, spent int) error {
		if i == n {
			o1, o2, err := objectives(est, p, prices)
			if err != nil {
				return err
			}
			cl := math.Abs(o1-up.O1) + math.Abs(o2-up.O2)
			if cl < best.Closeness {
				best.Closeness = cl
				best.Prices = append([]int(nil), prices...)
				best.O1, best.O2, best.Spent = o1, o2, spent
			}
			return nil
		}
		g := p.Groups[i]
		u := g.UnitCost()
		restMin := 0
		for j := i + 1; j < n; j++ {
			restMin += p.Groups[j].UnitCost()
		}
		for price := 1; spent+u*price+restMin <= p.Budget; price++ {
			states++
			if states > maxStates {
				return fmt.Errorf("htuning: EnumerateHeterogeneous exceeded %d states", maxStates)
			}
			prices[i] = price
			if err := rec(i+1, spent+u*price); err != nil {
				return err
			}
		}
		prices[i] = 1
		return nil
	}
	if err := rec(0, 0); err != nil {
		return HeterogeneousResult{}, err
	}
	if best.Prices == nil {
		return HeterogeneousResult{}, fmt.Errorf("%w: no feasible allocation", ErrBudgetTooSmall)
	}
	return best, nil
}
