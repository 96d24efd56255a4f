package crowddb

import (
	"math"
	"testing"

	"hputune/internal/market"
	"hputune/internal/pricing"
	"hputune/internal/randx"
)

func testDataset() Dataset {
	return Dataset{
		{ID: "a", Value: 100},
		{ID: "b", Value: 60},
		{ID: "c", Value: 58},
		{ID: "d", Value: 20},
	}
}

func testClassSet(t *testing.T) *ClassSet {
	t.Helper()
	cs, err := DefaultClassSet(pricing.Linear{K: 1, B: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestDotImages(t *testing.T) {
	ds, err := DotImages(50, 10, 90, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 50 {
		t.Fatalf("got %d items", len(ds))
	}
	for _, it := range ds {
		if it.Value < 10 || it.Value > 90 {
			t.Errorf("item %s value %v outside [10, 90]", it.ID, it.Value)
		}
	}
	if _, err := DotImages(0, 1, 2, randx.New(1)); err == nil {
		t.Error("zero items accepted")
	}
	if _, err := DotImages(5, 9, 2, randx.New(1)); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := DotImages(5, 1, 2, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestByValueAndIDs(t *testing.T) {
	ds := testDataset()
	sorted := ds.ByValue()
	want := []string{"a", "b", "c", "d"}
	for i, it := range sorted {
		if it.ID != want[i] {
			t.Errorf("position %d: %s, want %s", i, it.ID, want[i])
		}
	}
	// Original order untouched.
	if ds[0].ID != "a" || ds[3].ID != "d" {
		t.Error("ByValue mutated the receiver")
	}
}

func TestKendallTau(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	if d, err := KendallTau(a, a); err != nil || d != 0 {
		t.Errorf("identical rankings: %v, %v", d, err)
	}
	rev := []string{"d", "c", "b", "a"}
	if d, err := KendallTau(a, rev); err != nil || d != 1 {
		t.Errorf("reversed rankings: %v, %v", d, err)
	}
	swap := []string{"b", "a", "c", "d"}
	if d, err := KendallTau(a, swap); err != nil || math.Abs(d-1.0/6) > 1e-12 {
		t.Errorf("one swap: %v, %v (want 1/6)", d, err)
	}
	if _, err := KendallTau(a, a[:3]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := KendallTau(a, []string{"a", "b", "c", "x"}); err == nil {
		t.Error("id mismatch accepted")
	}
	if d, err := KendallTau([]string{"solo"}, []string{"solo"}); err != nil || d != 0 {
		t.Errorf("singleton: %v, %v", d, err)
	}
}

func TestFilterQuality(t *testing.T) {
	p, r := FilterQuality([]string{"a", "b", "x"}, []string{"a", "b", "c"})
	if math.Abs(p-2.0/3) > 1e-12 || math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("precision %v recall %v, want 2/3 each", p, r)
	}
	p, r = FilterQuality(nil, []string{"a"})
	if p != 0 || r != 0 {
		t.Errorf("empty prediction: %v, %v", p, r)
	}
}

func TestPlanSortPairsShape(t *testing.T) {
	ds := testDataset()
	plan, err := PlanSortPairs(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 6 { // C(4,2)
		t.Fatalf("got %d pair tasks, want 6", len(plan.Tasks))
	}
	// Close pair (b=60, c=58) must be harder and get more reps than the
	// far pair (a=100, d=20).
	var close, far *VoteTask
	for i := range plan.Tasks {
		tk := &plan.Tasks[i]
		if tk.A == "b" && tk.B == "c" {
			close = tk
		}
		if tk.A == "a" && tk.B == "d" {
			far = tk
		}
	}
	if close == nil || far == nil {
		t.Fatal("expected pairs missing")
	}
	if close.Diff <= far.Diff {
		t.Errorf("close pair difficulty %v not above far pair %v", close.Diff, far.Diff)
	}
	if close.Reps <= far.Reps {
		t.Errorf("close pair reps %d not above far pair %d", close.Reps, far.Reps)
	}
	if !far.Truth {
		t.Error("truth of a>d should be true")
	}
	if plan.TotalReps() < 18 {
		t.Errorf("TotalReps = %d, want >= 18", plan.TotalReps())
	}
}

func TestPlanSortPairsErrors(t *testing.T) {
	if _, err := PlanSortPairs(testDataset()[:1], 3); err == nil {
		t.Error("single item accepted")
	}
	if _, err := PlanSortPairs(testDataset(), 0); err == nil {
		t.Error("zero reps accepted")
	}
}

func TestPlanFilterDifficultyByGap(t *testing.T) {
	ds := Dataset{
		{ID: "far-above", Value: 100},
		{ID: "near", Value: 52},
		{ID: "far-below", Value: 5},
	}
	plan, err := PlanFilter(ds, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 3 {
		t.Fatalf("got %d tasks", len(plan.Tasks))
	}
	byID := map[string]VoteTask{}
	for _, tk := range plan.Tasks {
		byID[tk.A] = tk
	}
	if byID["near"].Diff != Hard {
		t.Errorf("near-threshold item difficulty %v, want Hard", byID["near"].Diff)
	}
	if byID["far-above"].Diff != Easy {
		t.Errorf("far item difficulty %v, want Easy", byID["far-above"].Diff)
	}
	if !byID["far-above"].Truth || byID["far-below"].Truth {
		t.Error("filter truths wrong")
	}
}

func TestDefaultClassSetOrdering(t *testing.T) {
	cs := testClassSet(t)
	easy, err := cs.Class(Easy)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := cs.Class(Hard)
	if err != nil {
		t.Fatal(err)
	}
	// Harder ⇒ slower acceptance at the same price, slower processing,
	// lower accuracy — the paper's Fig 5(a)/(b) premise.
	if hard.Accept.Rate(3) >= easy.Accept.Rate(3) {
		t.Error("hard class accepted as fast as easy")
	}
	if hard.ProcRate >= easy.ProcRate {
		t.Error("hard class processed as fast as easy")
	}
	if hard.Accuracy >= easy.Accuracy {
		t.Error("hard class as accurate as easy")
	}
	if _, err := cs.Class(Difficulty(42)); err == nil {
		t.Error("unknown difficulty accepted")
	}
	if _, err := DefaultClassSet(nil, 1); err == nil {
		t.Error("nil base model accepted")
	}
	if _, err := DefaultClassSet(pricing.Linear{K: 1, B: 1}, 0); err == nil {
		t.Error("zero processing rate accepted")
	}
}

func TestRunSortRecoversRanking(t *testing.T) {
	ds := Dataset{
		{ID: "a", Value: 100},
		{ID: "b", Value: 70},
		{ID: "c", Value: 40},
		{ID: "d", Value: 10},
	}
	ex := &Executor{Classes: testClassSet(t), Config: market.Config{Seed: 5}}
	ranking, out, err := ex.RunSort(ds, 5, UniformPrice(3))
	if err != nil {
		t.Fatal(err)
	}
	tau, err := KendallTau(ranking, ds.ByValue().IDs())
	if err != nil {
		t.Fatal(err)
	}
	// Well-separated values and 5 votes/pair: near-perfect ranking.
	if tau > 0.2 {
		t.Errorf("kendall tau %v too high; ranking %v", tau, ranking)
	}
	if out.Makespan <= 0 || out.Paid <= 0 {
		t.Errorf("outcome missing metrics: %+v", out)
	}
	if out.Accuracy() < 0.7 {
		t.Errorf("decision accuracy %v too low", out.Accuracy())
	}
}

func TestRunFilterSeparatesItems(t *testing.T) {
	ds := Dataset{
		{ID: "hi1", Value: 95},
		{ID: "hi2", Value: 90},
		{ID: "lo1", Value: 10},
		{ID: "lo2", Value: 12},
	}
	ex := &Executor{Classes: testClassSet(t), Config: market.Config{Seed: 9}}
	keep, out, err := ex.RunFilter(ds, 50, 5, UniformPrice(3))
	if err != nil {
		t.Fatal(err)
	}
	precision, recall := FilterQuality(keep, []string{"hi1", "hi2"})
	if precision < 0.99 || recall < 0.99 {
		t.Errorf("precision %v recall %v; kept %v", precision, recall, keep)
	}
	if out.Paid != 4*5*3 {
		t.Errorf("paid %d, want 60", out.Paid)
	}
}

func TestRunPlanErrors(t *testing.T) {
	ex := &Executor{Classes: testClassSet(t), Config: market.Config{Seed: 1}}
	if _, err := ex.RunPlan(Plan{Label: "empty"}, UniformPrice(1)); err == nil {
		t.Error("empty plan accepted")
	}
	plan, _ := PlanFilter(testDataset(), 50, 2)
	if _, err := ex.RunPlan(plan, nil); err == nil {
		t.Error("nil policy accepted")
	}
	broken := func(t VoteTask) []int { return []int{1} } // wrong length
	if _, err := ex.RunPlan(plan, broken); err == nil {
		t.Error("mis-sized policy output accepted")
	}
	bare := &Executor{Config: market.Config{Seed: 1}}
	if _, err := bare.RunPlan(plan, UniformPrice(1)); err == nil {
		t.Error("executor without classes accepted")
	}
}

func TestPriceByDifficulty(t *testing.T) {
	policy := PriceByDifficulty(map[Difficulty]int{Easy: 2, Hard: 6})
	tk := VoteTask{Diff: Hard, Reps: 3}
	prices := policy(tk)
	if len(prices) != 3 || prices[0] != 6 {
		t.Errorf("hard prices %v, want [6 6 6]", prices)
	}
	unknown := VoteTask{Diff: Medium, Reps: 2}
	prices = policy(unknown)
	if prices[0] != 1 {
		t.Errorf("unlisted difficulty priced %d, want fallback 1", prices[0])
	}
}

func TestHigherPayHastensSortQuery(t *testing.T) {
	// End-to-end: the same sort job at a higher uniform price must finish
	// faster on average — the premise the whole tuning problem rests on.
	ds := testDataset()
	mean := func(price int) float64 {
		total := 0.0
		const rounds = 30
		for i := 0; i < rounds; i++ {
			ex := &Executor{Classes: testClassSet(t), Config: market.Config{Seed: uint64(1000*price + i)}}
			_, out, err := ex.RunSort(ds, 3, UniformPrice(price))
			if err != nil {
				t.Fatal(err)
			}
			total += out.Makespan
		}
		return total / rounds
	}
	if cheap, rich := mean(1), mean(9); rich >= cheap {
		t.Errorf("price 9 makespan %v not below price 1 makespan %v", rich, cheap)
	}
}

func TestDifficultyString(t *testing.T) {
	if Easy.String() != "easy" || Medium.String() != "medium" || Hard.String() != "hard" {
		t.Error("difficulty names wrong")
	}
	if Difficulty(9).String() == "" {
		t.Error("unknown difficulty has empty name")
	}
}
