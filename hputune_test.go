package hputune_test

import (
	"errors"
	"strings"
	"testing"

	"hputune"
)

func apiProblem(budget int) hputune.Problem {
	typ := &hputune.TaskType{
		Name:     "vote",
		Accept:   hputune.Linear{K: 1, B: 1},
		ProcRate: 2.0,
	}
	return hputune.Problem{
		Groups: []hputune.Group{{Type: typ, Tasks: 10, Reps: 5}},
		Budget: budget,
	}
}

func TestPublicEvenAllocation(t *testing.T) {
	alloc, err := hputune.EvenAllocation(apiProblem(200))
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Cost() != 200 {
		t.Errorf("cost %d, want 200", alloc.Cost())
	}
	if price, ok := alloc.GroupPrice(0); !ok || price != 4 {
		t.Errorf("group price %d,%v; want 4,true", price, ok)
	}
}

func TestPublicBudgetSentinel(t *testing.T) {
	_, err := hputune.EvenAllocation(apiProblem(10))
	if err == nil {
		t.Fatal("infeasible budget accepted")
	}
	// The sentinel must be reachable through the facade for errors.Is.
	if !errors.Is(err, hputune.ErrBudgetTooSmall) && !strings.Contains(err.Error(), "budget") {
		t.Errorf("unhelpful budget error: %v", err)
	}
}

func TestPublicRepetitionSolvers(t *testing.T) {
	typ := &hputune.TaskType{Name: "v", Accept: hputune.Linear{K: 1, B: 1}, ProcRate: 2}
	p := hputune.Problem{
		Groups: []hputune.Group{
			{Type: typ, Tasks: 5, Reps: 3},
			{Type: typ, Tasks: 5, Reps: 5},
		},
		Budget: 160,
	}
	est := hputune.NewEstimator()
	greedy, err := hputune.SolveRepetition(est, p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := hputune.SolveRepetitionDP(est, p)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Objective > exact.Objective*1.05 {
		t.Errorf("greedy %.4f too far from DP %.4f", greedy.Objective, exact.Objective)
	}
	alloc, err := greedy.Allocation(p)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := hputune.SimulateJobLatency(p, alloc, hputune.PhaseOnHold, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Errorf("non-positive latency %v", lat)
	}
}

func TestPublicHeterogeneous(t *testing.T) {
	easy := &hputune.TaskType{Name: "easy", Accept: hputune.Linear{K: 1, B: 1}, ProcRate: 3}
	hard := &hputune.TaskType{Name: "hard", Accept: hputune.Linear{K: 1, B: 1}, ProcRate: 2}
	p := hputune.Problem{
		Groups: []hputune.Group{
			{Type: hard, Tasks: 4, Reps: 3},
			{Type: easy, Tasks: 4, Reps: 5},
		},
		Budget: 150,
	}
	res, err := hputune.SolveHeterogeneous(hputune.NewEstimator(), p)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	if res.O1 < res.Utopia.O1-eps || res.O2 < res.Utopia.O2-eps {
		t.Errorf("solution dominates its utopia point: O=(%.6f, %.6f) UP=(%.6f, %.6f)",
			res.O1, res.O2, res.Utopia.O1, res.Utopia.O2)
	}
}

func TestPublicBaselines(t *testing.T) {
	p := apiProblem(300)
	for name, build := range map[string]func() (hputune.Allocation, error){
		"bias":    func() (hputune.Allocation, error) { return hputune.BiasAllocation(p, 0.67, 7) },
		"te":      func() (hputune.Allocation, error) { return hputune.TaskEvenAllocation(p) },
		"re":      func() (hputune.Allocation, error) { return hputune.RepEvenAllocation(p) },
		"uniform": func() (hputune.Allocation, error) { return hputune.UniformTypeAllocation(p) },
	} {
		a, err := build()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if a.Cost() > p.Budget {
			t.Errorf("%s overspent: %d > %d", name, a.Cost(), p.Budget)
		}
	}
}

func TestPublicMarketRoundTrip(t *testing.T) {
	class := &hputune.TaskClass{
		Name:     "c",
		Accept:   hputune.Linear{K: 1, B: 1},
		ProcRate: 2,
		Accuracy: 1,
	}
	sim, err := hputune.NewMarket(hputune.MarketConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Post(hputune.TaskSpec{ID: "t", Class: class, RepPrices: []int{2, 2}}); err != nil {
		t.Fatal(err)
	}
	results, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := hputune.SummarizeMarket(results)
	if sum.Tasks != 1 || sum.Repetitions != 2 {
		t.Errorf("summary wrong: %+v", sum)
	}
	phases := hputune.CollectPhases(results)
	if len(phases.OnHold) != 2 {
		t.Errorf("phases wrong: %+v", phases)
	}
}

func TestPublicInference(t *testing.T) {
	est, err := hputune.EstimateFixedPeriod(10, 2)
	if err != nil || est.Rate != 5 {
		t.Errorf("fixed-period: %v, %v", est, err)
	}
	over, _ := hputune.EstimateRandomPeriod(20, 4, false)
	on, _ := hputune.EstimateFromDurations([]float64{0.5, 0.5})
	if _, err := hputune.SplitPhases(over, on); err != nil {
		t.Errorf("split: %v", err)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	names := hputune.ExperimentNames()
	if len(names) < 10 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	res, err := hputune.RunExperiment("motivation", hputune.ExperimentConfig{Seed: 1, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) == 0 {
		t.Error("no figures returned")
	}
	chart := hputune.RenderChart(res.Figures[0], 50, 12)
	table := hputune.RenderTable(res.Figures[0])
	if chart == "" || table == "" {
		t.Error("rendering failed")
	}
}

func TestPublicCrowdDB(t *testing.T) {
	items, err := hputune.DotImages(6, 10, 90, 5)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := hputune.DefaultVoteClasses(hputune.Linear{K: 1, B: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ex := &hputune.CrowdExecutor{Classes: classes, Config: hputune.MarketConfig{Seed: 11}}
	ranking, out, err := ex.RunSort(items, 3, hputune.UniformPrice(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 6 {
		t.Errorf("ranking size %d", len(ranking))
	}
	if out.Makespan <= 0 {
		t.Error("no makespan")
	}
	if _, err := hputune.KendallTau(ranking, items.ByValue().IDs()); err != nil {
		t.Errorf("tau: %v", err)
	}
}

func TestPublicWorkloads(t *testing.T) {
	m, err := hputune.CalibratedAcceptModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate(5) != 0.0038 {
		t.Errorf("calibrated rate wrong: %v", m.Rate(5))
	}
	// Fig 5c: three single-task image-filter groups.
	p, err := hputune.Fig5cProblem(600)
	if err != nil {
		t.Fatal(err)
	}
	a, err := hputune.RepEvenAllocation(p)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := hputune.SpecsForAllocation(p, a, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Errorf("got %d specs", len(specs))
	}
	if _, err := hputune.ImageFilterClass(6); err != nil {
		t.Errorf("image filter class: %v", err)
	}
}
