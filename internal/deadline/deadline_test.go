package deadline

import (
	"math"
	"testing"
	"testing/quick"

	"hputune/internal/htuning"
	"hputune/internal/numeric"
	"hputune/internal/pricing"
	"hputune/internal/randx"
)

func voteType() *htuning.TaskType {
	return &htuning.TaskType{Name: "vote", Accept: pricing.Linear{K: 1, B: 1}, ProcRate: 2}
}

func slowType() *htuning.TaskType {
	return &htuning.TaskType{Name: "slow-vote", Accept: pricing.Linear{K: 0.5, B: 0.5}, ProcRate: 0.5}
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMinCostSingleTaskExact(t *testing.T) {
	// Deadline 1, confidence 0.95: need λ >= −ln(0.05) ≈ 2.996, so with
	// λ(c) = c + 1 the smallest integer price is 2.
	res, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 1}}, 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prices[0] != 2 || res.Total != 2 {
		t.Errorf("price = %v total = %d, want 2/2", res.Prices, res.Total)
	}
}

func TestMinCostTighterDeadlineCostsMore(t *testing.T) {
	loose, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 5}}, 0.95, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 0.2}}, 0.95, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Total <= loose.Total {
		t.Errorf("tight deadline total %d not above loose %d", tight.Total, loose.Total)
	}
}

func TestMinCostGuaranteeHolds(t *testing.T) {
	// The chosen price must actually deliver the confidence, and price−1
	// must not (minimality), for a spread of deadlines.
	for _, d := range []float64{0.1, 0.5, 1, 2, 10} {
		res, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: d}}, 0.9, 10000)
		if err != nil {
			t.Fatalf("deadline %v: %v", d, err)
		}
		c := res.Prices[0]
		rate := voteType().Accept.Rate(float64(c))
		if p := 1 - math.Exp(-rate*d); p < 0.9 {
			t.Errorf("deadline %v price %d delivers only %v", d, c, p)
		}
		if c > 1 {
			rate = voteType().Accept.Rate(float64(c - 1))
			if p := 1 - math.Exp(-rate*d); p >= 0.9 {
				t.Errorf("deadline %v price %d not minimal (%d already delivers %v)", d, c, c-1, p)
			}
		}
	}
}

func TestMinCostUnreachableDeadline(t *testing.T) {
	_, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 0.0001}}, 0.99, 10)
	if err == nil {
		t.Error("unreachable deadline accepted")
	}
}

func TestMinCostValidation(t *testing.T) {
	if _, err := MinCostForDeadlines(nil, 0.9, 10); err == nil {
		t.Error("empty task list accepted")
	}
	if _, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 1}}, 0, 10); err == nil {
		t.Error("zero confidence accepted")
	}
	if _, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 1}}, 1, 10); err == nil {
		t.Error("confidence 1 accepted")
	}
	if _, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 0}}, 0.9, 10); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := MinCostForDeadlines([]Task{{Type: voteType(), Deadline: 1}}, 0.9, 0); err == nil {
		t.Error("zero maxPrice accepted")
	}
	if _, err := MinCostForDeadlines([]Task{{Type: &htuning.TaskType{}, Deadline: 1}}, 0.9, 10); err == nil {
		t.Error("invalid task type accepted")
	}
}

func TestMinCostMixedTypes(t *testing.T) {
	tasks := []Task{
		{Type: voteType(), Deadline: 1},
		{Type: slowType(), Deadline: 1},
	}
	res, err := MinCostForDeadlines(tasks, 0.9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prices[1] <= res.Prices[0] {
		t.Errorf("slower type should cost more: %v", res.Prices)
	}
	if res.Total != res.Prices[0]+res.Prices[1] {
		t.Errorf("total %d != sum of %v", res.Total, res.Prices)
	}
}

func TestParallelMakespanSingleGroupClosedForm(t *testing.T) {
	groups := []htuning.Group{{Type: voteType(), Tasks: 10, Reps: 3}}
	got, err := parallelMakespan(groups, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	want := numeric.Harmonic(30) / 3.0 // 30 parallel clocks at rate 3
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("makespan %v, want %v", got, want)
	}
}

func TestParallelMakespanTwoGroupsAgainstMonteCarlo(t *testing.T) {
	groups := []htuning.Group{
		{Type: voteType(), Tasks: 8, Reps: 2},
		{Type: slowType(), Tasks: 4, Reps: 3},
	}
	prices := []int{2, 3}
	analytic, err := parallelMakespan(groups, prices)
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(99)
	const trials = 40000
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		m := 0.0
		for gi, g := range groups {
			rate := g.Type.Accept.Rate(float64(prices[gi]))
			for i := 0; i < g.Tasks*g.Reps; i++ {
				if v := r.Exp(rate); v > m {
					m = v
				}
			}
		}
		sum += m
	}
	mc := sum / trials
	if !almostEqual(analytic, mc, 0.02) {
		t.Errorf("analytic %v vs Monte Carlo %v", analytic, mc)
	}
}

func TestMinimizeExpectedMaxSpendsBudget(t *testing.T) {
	p := htuning.Problem{
		Groups: []htuning.Group{
			{Type: voteType(), Tasks: 10, Reps: 2},
			{Type: voteType(), Tasks: 5, Reps: 4},
		},
		Budget: 200,
	}
	res, err := MinimizeExpectedMax(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spent > p.Budget {
		t.Errorf("overspent: %d > %d", res.Spent, p.Budget)
	}
	// With a strictly increasing rate model every extra unit helps, so
	// the greedy must leave less than one step of slack.
	minStep := p.Groups[0].UnitCost()
	if s := p.Groups[1].UnitCost(); s < minStep {
		minStep = s
	}
	if p.Budget-res.Spent >= minStep {
		t.Errorf("left %d unspent with steps of %d available", p.Budget-res.Spent, minStep)
	}
	for i, price := range res.Prices {
		if price < 1 {
			t.Errorf("group %d priced %d", i, price)
		}
	}
}

func TestMinimizeExpectedMaxImprovesOnUniform(t *testing.T) {
	// Asymmetric groups: optimal parallel prices differ from uniform.
	p := htuning.Problem{
		Groups: []htuning.Group{
			{Type: voteType(), Tasks: 40, Reps: 1},
			{Type: voteType(), Tasks: 5, Reps: 1},
		},
		Budget: 450,
	}
	res, err := MinimizeExpectedMax(p)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := parallelMakespan(p.Groups, []int{10, 10}) // 40·10+5·10=450
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > uniform+1e-9 {
		t.Errorf("greedy %v worse than uniform %v", res.Objective, uniform)
	}
}

func TestMinimizeExpectedMaxBudgetTooSmall(t *testing.T) {
	p := htuning.Problem{
		Groups: []htuning.Group{{Type: voteType(), Tasks: 10, Reps: 2}},
		Budget: 19,
	}
	if _, err := MinimizeExpectedMax(p); err == nil {
		t.Error("starved budget accepted")
	}
}

func TestMinimizeExpectedMaxMonotoneInBudgetProperty(t *testing.T) {
	// Property: a larger budget can never yield a worse objective.
	groups := []htuning.Group{
		{Type: voteType(), Tasks: 6, Reps: 2},
		{Type: slowType(), Tasks: 3, Reps: 3},
	}
	prop := func(seed uint64) bool {
		r := randx.New(seed)
		b1 := 21 + r.Intn(100)
		b2 := b1 + 1 + r.Intn(100)
		r1, err1 := MinimizeExpectedMax(htuning.Problem{Groups: groups, Budget: b1})
		r2, err2 := MinimizeExpectedMax(htuning.Problem{Groups: groups, Budget: b2})
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.Objective <= r1.Objective+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuantileDeadlineMatchesCDF(t *testing.T) {
	groups := []htuning.Group{
		{Type: voteType(), Tasks: 10, Reps: 2},
		{Type: slowType(), Tasks: 5, Reps: 1},
	}
	prices := []int{3, 4}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		d, err := QuantileDeadline(groups, prices, q)
		if err != nil {
			t.Fatal(err)
		}
		// Verify by evaluating the joint CDF at the returned deadline.
		cdf := 1.0
		for i, g := range groups {
			rate := g.Type.Accept.Rate(float64(prices[i]))
			cdf *= math.Pow(1-math.Exp(-rate*d), float64(g.Tasks*g.Reps))
		}
		if !almostEqual(cdf, q, 1e-6) {
			t.Errorf("q=%v: CDF(deadline) = %v", q, cdf)
		}
	}
}

func TestQuantileDeadlineMonotoneInConfidence(t *testing.T) {
	groups := []htuning.Group{{Type: voteType(), Tasks: 10, Reps: 1}}
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		d, err := QuantileDeadline(groups, []int{2}, q)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prev {
			t.Errorf("deadline not increasing at q=%v: %v <= %v", q, d, prev)
		}
		prev = d
	}
}

func TestQuantileDeadlineValidation(t *testing.T) {
	groups := []htuning.Group{{Type: voteType(), Tasks: 10, Reps: 1}}
	if _, err := QuantileDeadline(groups, []int{1, 2}, 0.9); err == nil {
		t.Error("mismatched prices accepted")
	}
	if _, err := QuantileDeadline(groups, []int{1}, 0); err == nil {
		t.Error("zero confidence accepted")
	}
	if _, err := QuantileDeadline(groups, []int{1}, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
}

func TestComparatorMatchesEAInScenarioI(t *testing.T) {
	// Scenario I with single repetitions: acceptance-only and
	// pure-parallel are exactly the HPU model, so the comparator's
	// allocation must agree with Even Allocation's uniform price.
	p := htuning.Problem{
		Groups: []htuning.Group{{Type: voteType(), Tasks: 20, Reps: 1}},
		Budget: 100,
	}
	res, err := MinimizeExpectedMax(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prices[0] != 5 { // 100/20
		t.Errorf("comparator price %d, want 5", res.Prices[0])
	}
}

func TestComparatorLosesWhenRepetitionsAreSequential(t *testing.T) {
	// The comparator's pure-parallel assumption treats a task's k
	// repetitions as k independent clocks, so it overestimates
	// parallelism; scoring its allocation under the true sequential
	// model must never beat the Scenario II solver's own objective.
	est := htuning.NewEstimator()
	p := htuning.Problem{
		Groups: []htuning.Group{
			{Type: voteType(), Tasks: 10, Reps: 5},
			{Type: voteType(), Tasks: 10, Reps: 1},
		},
		Budget: 300,
	}
	ra, err := htuning.SolveRepetition(est, p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MinimizeExpectedMax(p)
	if err != nil {
		t.Fatal(err)
	}
	sumPhase1 := func(prices []int) float64 {
		sum := numeric.NewKahan()
		for i, g := range p.Groups {
			v, err := est.GroupPhase1Mean(g, prices[i])
			if err != nil {
				t.Fatal(err)
			}
			sum.Add(v)
		}
		return sum.Sum()
	}
	raScore, parScore := sumPhase1(ra.Prices), sumPhase1(par.Prices)
	if parScore < raScore-1e-9 {
		t.Errorf("comparator %v beat RA %v on RA's own objective", parScore, raScore)
	}
}
