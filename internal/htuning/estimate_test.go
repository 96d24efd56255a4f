package htuning

import (
	"math"
	"testing"

	"hputune/internal/numeric"
	"hputune/internal/randx"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestGroupPhase1MeanClosedForm(t *testing.T) {
	// n tasks of 1 repetition: E[max of n Exp(λ)] = H_n/λ.
	typ := linType("t", 2, 1, 3) // λo(c) = 2c+1
	est := NewEstimator()
	for _, n := range []int{1, 3, 10} {
		g := Group{Type: typ, Tasks: n, Reps: 1}
		got, err := est.GroupPhase1Mean(g, 2) // λ = 5
		if err != nil {
			t.Fatal(err)
		}
		want := numeric.Harmonic(n) / 5
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("n=%d: %v, want %v", n, got, want)
		}
	}
}

func TestGroupPhase1MeanSingleTaskErlang(t *testing.T) {
	// One task with k reps: E = k/λ.
	typ := linType("t", 1, 0, 3) // λo(c) = c
	est := NewEstimator()
	g := Group{Type: typ, Tasks: 1, Reps: 4}
	got, err := est.GroupPhase1Mean(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2, 1e-8) {
		t.Errorf("E = %v, want k/λ = 2", got)
	}
}

func TestGroupPhase1MeanDecreasesWithPrice(t *testing.T) {
	typ := linType("t", 1, 1, 2)
	est := NewEstimator()
	g := Group{Type: typ, Tasks: 7, Reps: 3}
	prev := math.MaxFloat64
	for price := 1; price <= 20; price++ {
		v, err := est.GroupPhase1Mean(g, price)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatalf("E not decreasing at price %d: %v >= %v", price, v, prev)
		}
		prev = v
	}
}

func TestGroupPhase1MeanConvexInPrice(t *testing.T) {
	// Convexity underpins the greedy RA solver; check discrete convexity
	// for all synthetic models.
	for _, typ := range []*TaskType{
		linType("a", 1, 1, 2), linType("b", 10, 1, 2),
		linType("c", 0.1, 10, 2), linType("d", 3, 3, 2),
	} {
		est := NewEstimator()
		g := Group{Type: typ, Tasks: 10, Reps: 4}
		var vals []float64
		for price := 1; price <= 15; price++ {
			v, err := est.GroupPhase1Mean(g, price)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		for i := 2; i < len(vals); i++ {
			d1 := vals[i-1] - vals[i-2]
			d2 := vals[i] - vals[i-1]
			if d2 < d1-1e-9 {
				t.Errorf("%s: differences not increasing at price %d (%v then %v)", typ.Name, i, d1, d2)
			}
		}
	}
}

func TestGroupPhase2MeanIndependentOfPriceModel(t *testing.T) {
	est := NewEstimator()
	g1 := Group{Type: linType("a", 1, 1, 2.5), Tasks: 6, Reps: 2}
	g2 := Group{Type: linType("b", 99, 7, 2.5), Tasks: 6, Reps: 2}
	v1, err := est.GroupPhase2Mean(g1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := est.GroupPhase2Mean(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v1, v2, 1e-12) {
		t.Errorf("phase-2 means differ across price models: %v vs %v", v1, v2)
	}
}

func TestGroupTotalMeanExceedsPhases(t *testing.T) {
	est := NewEstimator()
	g := Group{Type: linType("t", 1, 1, 2), Tasks: 5, Reps: 3}
	p1, err := est.GroupPhase1Mean(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := est.GroupPhase2Mean(g)
	if err != nil {
		t.Fatal(err)
	}
	tot, err := est.GroupTotalMean(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// max(A+B) >= max(A) and >= max(B); and <= max(A)+max(B).
	if tot < p1 || tot < p2 {
		t.Errorf("total %v below a single phase (%v, %v)", tot, p1, p2)
	}
	if tot > p1+p2+1e-9 {
		t.Errorf("total %v above the sum of phase maxima %v", tot, p1+p2)
	}
}

func TestEstimatorCacheHitsAreConsistent(t *testing.T) {
	est := NewEstimator()
	g := Group{Type: linType("t", 2, 1, 3), Tasks: 8, Reps: 2}
	v1, err := est.GroupPhase1Mean(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := est.GroupPhase1Mean(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("cache returned different value: %v vs %v", v1, v2)
	}
	// Zero-value estimator must also work (lazy map).
	var zero Estimator
	if _, err := zero.GroupPhase1Mean(g, 4); err != nil {
		t.Errorf("zero-value estimator failed: %v", err)
	}
}

func TestEstimateErrors(t *testing.T) {
	est := NewEstimator()
	g := Group{Type: linType("t", 1, 1, 2), Tasks: 3, Reps: 2}
	if _, err := est.GroupPhase1Mean(g, 0); err == nil {
		t.Error("price 0 accepted")
	}
	bad := Group{Type: linType("t", 1, 1, 2), Tasks: 0, Reps: 2}
	if _, err := est.GroupPhase1Mean(bad, 1); err == nil {
		t.Error("invalid group accepted")
	}
}

func TestJobExpectedLatencySingleGroupMatchesGroupMean(t *testing.T) {
	est := NewEstimator()
	g := Group{Type: linType("t", 1, 1, 2), Tasks: 6, Reps: 3}
	groups := []Group{g}
	job, err := est.JobExpectedLatency(groups, []int{4}, PhaseOnHold)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := est.GroupPhase1Mean(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(job, grp, 1e-6) {
		t.Errorf("job %v vs group %v", job, grp)
	}
}

func TestJobExpectedLatencyBoundedBySumOfGroups(t *testing.T) {
	// The paper approximates E[max over groups] by Σ group means, an upper
	// bound; the exact value must lie between the largest group mean and
	// the sum.
	est := NewEstimator()
	typ := linType("t", 1, 1, 2)
	groups := []Group{
		{Type: typ, Tasks: 5, Reps: 3},
		{Type: typ, Tasks: 5, Reps: 5},
	}
	prices := []int{3, 4}
	job, err := est.JobExpectedLatency(groups, prices, PhaseOnHold)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	maxGroup := 0.0
	for i, g := range groups {
		v, err := est.GroupPhase1Mean(g, prices[i])
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		if v > maxGroup {
			maxGroup = v
		}
	}
	if job < maxGroup-1e-9 || job > sum+1e-9 {
		t.Errorf("job latency %v outside [max group %v, sum %v]", job, maxGroup, sum)
	}
}

func TestJobExpectedLatencyMatchesMonteCarlo(t *testing.T) {
	est := NewEstimator()
	typ := linType("t", 1, 1, 2.5)
	groups := []Group{
		{Type: typ, Tasks: 4, Reps: 2},
		{Type: typ, Tasks: 3, Reps: 4},
	}
	prices := []int{2, 3}
	p := Problem{Groups: groups, Budget: 1000}
	a, err := NewUniformAllocation(p, prices)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []Phase{PhaseOnHold, PhaseBoth} {
		analytic, err := est.JobExpectedLatency(groups, prices, phase)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := SimulateJobLatency(p, a, phase, 30000, randx.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(analytic, mc, 0.03) {
			t.Errorf("phase %d: analytic %v vs MC %v", phase, analytic, mc)
		}
	}
}

func TestSimulateJobLatencyErrors(t *testing.T) {
	typ := linType("t", 1, 1, 2)
	p := Problem{Groups: []Group{{Type: typ, Tasks: 2, Reps: 2}}, Budget: 8}
	a, _ := NewUniformAllocation(p, []int{2})
	if _, err := SimulateJobLatency(p, a, PhaseBoth, 0, randx.New(1)); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := SimulateJobLatency(p, a, PhaseBoth, 10, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	bad := Allocation{}
	if _, err := SimulateJobLatency(p, bad, PhaseBoth, 10, randx.New(1)); err == nil {
		t.Error("empty allocation accepted")
	}
}

func TestJobExpectedLatencyUnknownPhase(t *testing.T) {
	est := NewEstimator()
	g := Group{Type: linType("t", 1, 1, 2), Tasks: 1, Reps: 1}
	if _, err := est.JobExpectedLatency([]Group{g}, []int{1}, Phase(99)); err == nil {
		t.Error("unknown phase accepted")
	}
}
