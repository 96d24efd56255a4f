package hputune_test

import (
	"bytes"
	"math"
	"testing"

	"hputune"
)

// TestTracePipelineEndToEnd runs the full offline-inference loop through
// the public API: simulate a marketplace run, export the trace, read it
// back, estimate the clock rates from the durations, validate the
// exponential fit statistically, and check the recovered rates against
// the simulator's ground truth.
func TestTracePipelineEndToEnd(t *testing.T) {
	const (
		truthK    = 1.0
		truthB    = 1.0
		truthProc = 2.0
		price     = 3
		tasks     = 400
	)
	class := &hputune.TaskClass{
		Name:     "vote",
		Accept:   hputune.Linear{K: truthK, B: truthB},
		ProcRate: truthProc,
		Accuracy: 1,
	}
	sim, err := hputune.NewMarket(hputune.MarketConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		err := sim.Post(hputune.TaskSpec{
			ID:        "t" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)),
			Class:     class,
			RepPrices: []int{price},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	// Export and reimport through both formats.
	recs := sim.AllRecords()
	var csvBuf, jsonBuf bytes.Buffer
	if err := hputune.WriteTraceCSV(&csvBuf, recs); err != nil {
		t.Fatal(err)
	}
	if err := hputune.WriteTraceJSONL(&jsonBuf, recs); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := hputune.ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := hputune.ReadTraceJSONL(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != len(recs) || len(fromJSON) != len(recs) {
		t.Fatalf("trace round trips lost records: %d / %d of %d", len(fromCSV), len(fromJSON), len(recs))
	}

	// Rates from the reimported trace.
	onhold := hputune.TraceOnHoldDurations(fromCSV)
	proc := hputune.TraceProcessingDurations(fromCSV)
	ohEst, err := hputune.EstimateFromDurations(onhold)
	if err != nil {
		t.Fatal(err)
	}
	procEst, err := hputune.EstimateFromDurations(proc)
	if err != nil {
		t.Fatal(err)
	}
	wantRate := truthK*price + truthB
	if math.Abs(ohEst.Rate-wantRate) > 0.35*wantRate {
		t.Errorf("on-hold rate estimate %v far from truth %v", ohEst.Rate, wantRate)
	}
	if math.Abs(procEst.Rate-truthProc) > 0.35*truthProc {
		t.Errorf("processing rate estimate %v far from truth %v", procEst.Rate, truthProc)
	}

	// The exact CI from the same sample must cover the truth.
	total := 0.0
	for _, d := range onhold {
		total += d
	}
	ci, err := hputune.RateIntervalFromDurations(len(onhold), total, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(wantRate) {
		t.Errorf("99.9%% CI [%v, %v] misses the true rate %v", ci.Lo, ci.Hi, wantRate)
	}

	// Both phases must pass the exponentiality test — the model check a
	// real deployment would run before trusting the tuner.
	ks, err := hputune.TestExponential(onhold, 400, 123)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Reject(0.01) {
		t.Errorf("on-hold sample rejected as exponential: D=%v p=%v", ks.D, ks.P)
	}
	chi, err := hputune.TestExponentialBinned(proc)
	if err != nil {
		t.Fatal(err)
	}
	if chi.Reject(0.01) {
		t.Errorf("processing sample rejected as exponential: stat=%v p=%v", chi.Stat, chi.P)
	}

	// Price bucketing covers the whole trace.
	buckets := hputune.TraceGroupByPrice(fromJSON)
	if len(buckets) != 1 || len(buckets[price]) != len(recs) {
		t.Errorf("price buckets wrong: %d buckets, %d at price %d", len(buckets), len(buckets[price]), price)
	}
}

// TestAbandonmentThroughFacade checks the failure-injection knob end to
// end through the public configuration surface.
func TestAbandonmentThroughFacade(t *testing.T) {
	class := &hputune.TaskClass{
		Name:     "vote",
		Accept:   hputune.Linear{K: 1, B: 1},
		ProcRate: 2,
		Accuracy: 1,
	}
	sim, err := hputune.NewMarket(hputune.MarketConfig{
		Seed:        4,
		AbandonProb: 0.5,
		AbandonRate: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sim.Post(hputune.TaskSpec{ID: "t", Class: class, RepPrices: []int{2, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	results, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("completed %d of 50 tasks", len(results))
	}
	if sim.Abandoned() == 0 {
		t.Error("no abandonments recorded at probability 0.5")
	}
}

// TestComparatorFacade exercises the [29] and retainer comparators
// through the public API on one coherent scenario.
func TestComparatorFacade(t *testing.T) {
	vote := &hputune.TaskType{Name: "vote", Accept: hputune.Linear{K: 1, B: 1}, ProcRate: 2}
	p := hputune.Problem{
		Groups: []hputune.Group{
			{Type: vote, Tasks: 4, Reps: 10},
			{Type: vote, Tasks: 30, Reps: 1},
		},
		Budget: 300,
	}
	par, err := hputune.MinimizeExpectedMaxParallel(p)
	if err != nil {
		t.Fatal(err)
	}
	if par.Spent > p.Budget {
		t.Errorf("comparator overspent: %d > %d", par.Spent, p.Budget)
	}
	d, err := hputune.QuantileDeadline(p.Groups, par.Prices, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !(d > 0) {
		t.Errorf("non-positive deadline %v", d)
	}
	mc, err := hputune.MinCostForDeadlines([]hputune.DeadlineTask{
		{Type: vote, Deadline: 1},
	}, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Total < 1 {
		t.Errorf("empty min-cost result: %+v", mc)
	}

	pool := hputune.RetainerPool{Workers: 20, ServiceRate: 2, Fee: 0.5, TaskPayment: 1}
	mk, err := hputune.RetainerBatchMakespan(pool, 70)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := hputune.RetainerBatchCost(pool, 70)
	if err != nil {
		t.Fatal(err)
	}
	if !(mk > 0) || cost <= 70 {
		t.Errorf("retainer batch wrong: makespan %v cost %v", mk, cost)
	}
	sm, err := hputune.SimulateRetainerBatch(pool, 70, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sm-mk) > 2*mk {
		t.Errorf("simulated makespan %v wildly off expectation %v", sm, mk)
	}
	lat, err := hputune.RetainerSteadyStateLatency(pool, 30)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0.5 { // must exceed the bare service time 1/μ
		t.Errorf("steady-state latency %v not above service time", lat)
	}
	choice, err := hputune.OptimizeRetainerPool(70, 200, 2, 0.5, 1, 70)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Cost > 200 {
		t.Errorf("optimized pool over budget: %v", choice.Cost)
	}
}

// TestGroupByTopKFacade exercises the group-by and top-k operators
// through the public API.
func TestGroupByTopKFacade(t *testing.T) {
	classes, err := hputune.DefaultVoteClasses(hputune.Linear{K: 1, B: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	items, err := hputune.CategorizedItems(9, []string{"cat", "dog", "owl"}, 10, 100, 21)
	if err != nil {
		t.Fatal(err)
	}
	e := &hputune.CrowdExecutor{Classes: classes, Config: hputune.MarketConfig{Seed: 5}}
	gb, err := e.RunGroupBy(items, 5, hputune.UniformPrice(2))
	if err != nil {
		t.Fatal(err)
	}
	ri, err := hputune.RandIndex(gb.Clusters, items)
	if err != nil {
		t.Fatal(err)
	}
	if ri < 0.5 {
		t.Errorf("group-by Rand index %v below 0.5", ri)
	}
	images, err := hputune.DotImages(12, 10, 200, 23)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := e.RunTopK(images, 3, 3, hputune.UniformPrice(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.TopK) != 3 {
		t.Errorf("top-k returned %d ids", len(tk.TopK))
	}
}

// TestSolverCrossValidation is a coarse property: for random two-group
// Scenario II instances, the greedy RA must stay within 5% of the exact
// DP objective.
func TestSolverCrossValidation(t *testing.T) {
	vote := &hputune.TaskType{Name: "vote", Accept: hputune.Linear{K: 1, B: 1}, ProcRate: 2}
	for _, tc := range []struct {
		t1, r1, t2, r2, budget int
	}{
		{10, 1, 10, 4, 200},
		{5, 2, 20, 3, 350},
		{8, 5, 2, 1, 150},
		{15, 2, 15, 2, 400},
	} {
		p := hputune.Problem{
			Groups: []hputune.Group{
				{Type: vote, Tasks: tc.t1, Reps: tc.r1},
				{Type: vote, Tasks: tc.t2, Reps: tc.r2},
			},
			Budget: tc.budget,
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
		if greedy.Objective > exact.Objective*1.05+1e-9 {
			t.Errorf("%+v: greedy %v exceeds DP %v by >5%%", tc, greedy.Objective, exact.Objective)
		}
	}
}
