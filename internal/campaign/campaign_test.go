package campaign

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"hputune/internal/htuning"
	"hputune/internal/market"
	"hputune/internal/pricing"
)

// linClass builds a true marketplace class with a linear accept model.
func linClass(name string, k, b, proc float64) *market.TaskClass {
	return &market.TaskClass{Name: name, Accept: pricing.Linear{K: k, B: b}, ProcRate: proc, Accuracy: 1}
}

// twoGroup is the canonical Scenario II campaign: same difficulty, two
// repetition requirements, true model 2p+0.5 under the mistuned prior
// p+1. RA prices the groups differently, so every round observes two
// price levels and the fit re-publishes each round.
func twoGroup(seed uint64) Config {
	return Config{
		Name: "two-group",
		Groups: []Group{
			{Name: "g3", Tasks: 50, Reps: 3, Class: linClass("t", 2, 0.5, 2)},
			{Name: "g5", Tasks: 50, Reps: 5, Class: linClass("t", 2, 0.5, 2)},
		},
		Prior:       pricing.Linear{K: 1, B: 1},
		RoundBudget: 1000,
		Budget:      12000,
		MaxRounds:   12,
		Epsilon:     0.05,
		Seed:        seed,
	}
}

func TestStationaryConvergence(t *testing.T) {
	heter := twoGroup(11)
	heter.Name = "heter"
	heter.Groups[1].Class = linClass("t", 2, 0.5, 3)

	homo := Config{
		Name:        "homo",
		Groups:      []Group{{Name: "g", Tasks: 100, Reps: 5, Class: linClass("t", 2, 0.5, 2)}},
		Prior:       pricing.Linear{K: 1, B: 1},
		RoundBudget: 1000,
		MaxRounds:   8,
		Epsilon:     0.05,
		Seed:        3,
	}

	cases := []struct {
		name string
		cfg  Config
		algo string
		// wantFit asserts the final belief landed near the true slope 2
		// (impossible for homo: one price level never yields a fit).
		wantFit bool
	}{
		{"repetition-ra", twoGroup(7), "ra", true},
		{"heterogeneous-ha", heter, "ha", true},
		{"homogeneous-fixed-point", homo, "ra", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), nil, tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Status != StatusConverged || !res.Converged {
				t.Fatalf("status %s (converged=%v), want %s; reason %q", res.Status, res.Converged, StatusConverged, res.Reason)
			}
			// Convergence needs at least a repeated allocation and must
			// beat the deadline (the whole point of re-tuning).
			if res.RoundsRun < 2 || res.RoundsRun >= tc.cfg.MaxRounds {
				t.Fatalf("converged after %d rounds, want within [2, %d)", res.RoundsRun, tc.cfg.MaxRounds)
			}
			if got := res.Rounds[0].Algorithm; got != tc.algo {
				t.Fatalf("algorithm %q, want %q", got, tc.algo)
			}
			cfg := tc.cfg.withDefaults()
			if res.Spent+res.Remaining != cfg.Budget {
				t.Fatalf("spent %d + remaining %d != budget %d", res.Spent, res.Remaining, cfg.Budget)
			}
			if len(res.Rounds) != res.RoundsRun || res.DroppedRounds != 0 {
				t.Fatalf("history: %d snapshots, %d dropped, %d rounds run", len(res.Rounds), res.DroppedRounds, res.RoundsRun)
			}
			if tc.wantFit {
				if res.Fit == nil {
					t.Fatal("no final fit published")
				}
				if res.Fit.Slope < 1.4 || res.Fit.Slope > 2.6 {
					t.Fatalf("final slope %.3f implausibly far from the true 2.0", res.Fit.Slope)
				}
			} else if res.Fit != nil {
				t.Fatalf("single price level cannot produce a fit, got %+v", res.Fit)
			}
		})
	}
}

// TestConvergenceRejectsFirstFit pins that a first-ever fit never counts
// as a stable belief, even when the allocation repeats: the campaign
// must run at least one more round priced on the new belief.
func TestConvergenceRejectsFirstFit(t *testing.T) {
	res, err := Run(context.Background(), nil, twoGroup(7))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Rounds[0]
	if first.Fit == nil {
		t.Fatalf("round 0 published no fit: %q", first.FitPending)
	}
	if res.RoundsRun < 3 {
		t.Fatalf("converged after %d rounds; a first fit in round 0 cannot converge before round 2", res.RoundsRun)
	}
}

func TestDriftStopsAtBudgetExhaustion(t *testing.T) {
	cfg := twoGroup(5)
	cfg.Name = "rate-drift"
	cfg.Budget = 3500
	cfg.MaxRounds = 1000
	cfg.Epsilon = 0 // a moving fit never counts as stable
	cfg.Drift = Drift{Kind: DriftRate, Factor: 0.8}
	res, err := Run(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudgetExhausted {
		t.Fatalf("status %s, want %s; reason %q", res.Status, StatusBudgetExhausted, res.Reason)
	}
	// Every round spends at least one unit per repetition (400 here), so
	// exhaustion is guaranteed within budget/minRoundCost rounds.
	if max := cfg.Budget / cfg.minRoundCost(); res.RoundsRun > max {
		t.Fatalf("%d rounds on a %d budget (min %d/round)", res.RoundsRun, cfg.Budget, cfg.minRoundCost())
	}
	if res.Remaining >= cfg.minRoundCost() {
		t.Fatalf("stopped with %d remaining, enough for another round (min %d)", res.Remaining, cfg.minRoundCost())
	}
	if res.Converged {
		t.Fatal("drifting campaign reported convergence")
	}
}

func TestDeadlineStopsAtMaxRounds(t *testing.T) {
	cfg := twoGroup(9)
	cfg.MaxRounds = 3
	cfg.Budget = 0 // default MaxRounds × RoundBudget
	cfg.Epsilon = 0
	res, err := Run(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusMaxRounds || res.RoundsRun != 3 {
		t.Fatalf("status %s after %d rounds, want %s after 3 (reason %q)", res.Status, res.RoundsRun, StatusMaxRounds, res.Reason)
	}
}

func TestHistoryBounded(t *testing.T) {
	cfg := twoGroup(21)
	cfg.MaxRounds = 5
	cfg.Epsilon = 0
	cfg.HistoryCap = 2
	res, err := Run(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsRun != 5 || len(res.Rounds) != 2 || res.DroppedRounds != 3 {
		t.Fatalf("rounds run %d, retained %d, dropped %d; want 5/2/3", res.RoundsRun, len(res.Rounds), res.DroppedRounds)
	}
	if res.Rounds[0].Round != 3 || res.Rounds[1].Round != 4 {
		t.Fatalf("retained rounds %d,%d; want the newest (3,4)", res.Rounds[0].Round, res.Rounds[1].Round)
	}
}

// TestDeterminism pins the core contract: a campaign is a pure function
// of (Config, Seed), and a fleet of campaigns returns identical results
// for any worker count and regardless of estimator sharing.
func TestDeterminism(t *testing.T) {
	cfgs := []Config{twoGroup(7), twoGroup(8)}
	heter := twoGroup(11)
	heter.Name = "heter"
	heter.Groups[1].Class = linClass("t", 2, 0.5, 3)
	drift := twoGroup(5)
	drift.Name = "drift"
	drift.Epsilon = 0
	drift.Budget = 3500
	drift.Drift = Drift{Kind: DriftRate, Factor: 0.8}
	cfgs = append(cfgs, heter, drift)

	serial, err := RunFleet(context.Background(), htuning.NewEstimator(), cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunFleet(context.Background(), htuning.NewEstimator(), cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("fleet results differ between 1 and 8 workers:\n%+v\n%+v", serial, wide)
	}
	// A warm shared estimator must not change results either.
	est := htuning.NewEstimator()
	warm1, err := RunFleet(context.Background(), est, cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := RunFleet(context.Background(), est, cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm1, serial) || !reflect.DeepEqual(warm2, serial) {
		t.Fatal("results changed with a warm shared estimator")
	}
}

// stubObservation fabricates completed records at two price levels whose
// MLE rates fit the line λo(c) = c exactly.
func stubObservation(n int) Observation {
	var recs []market.RepRecord
	for i := 0; i < n; i++ {
		recs = append(recs,
			market.RepRecord{TaskID: "a", Price: 2, PostedAt: 0, Accepted: 0.5, Done: 1},
			market.RepRecord{TaskID: "b", Price: 3, PostedAt: 0, Accepted: 1.0 / 3, Done: 1},
		)
	}
	return Observation{Records: recs, Makespan: 1}
}

// cancelingExecutor executes round cancelAt normally but cancels the
// campaign's context right before returning — the "cancel landed while
// the round's results were in flight" window.
type cancelingExecutor struct {
	cancelAt int
	cancel   context.CancelFunc
}

func (e *cancelingExecutor) Execute(ctx context.Context, round int, p htuning.Problem, a htuning.Allocation, seed uint64) (Observation, error) {
	if round == e.cancelAt {
		e.cancel()
	}
	return stubObservation(10), nil
}

// TestCancelMidRoundLeavesFitUntouched pins the cancellation contract: a
// round whose execution was interrupted by cancel publishes nothing —
// the belief stays exactly as the last completed round left it.
func TestCancelMidRoundLeavesFitUntouched(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := twoGroup(1)
	cfg.Epsilon = 0
	cfg.MaxRounds = 10
	cfg.Executor = &cancelingExecutor{cancelAt: 1, cancel: cancel}
	c, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("cancel must not be an error: %v", err)
	}
	if res.Status != StatusCanceled || !strings.Contains(res.Reason, "round 1") {
		t.Fatalf("status %s (%q), want %s during round 1", res.Status, res.Reason, StatusCanceled)
	}
	if res.RoundsRun != 1 || len(res.Rounds) != 1 {
		t.Fatalf("rounds run %d (retained %d), want exactly the 1 completed round", res.RoundsRun, len(res.Rounds))
	}
	round0 := res.Rounds[0].Fit
	if round0 == nil {
		t.Fatal("round 0 should have published a fit")
	}
	if res.Fit == nil || *res.Fit != *round0 {
		t.Fatalf("published fit %+v changed after cancel; want round 0's %+v untouched", res.Fit, round0)
	}
	// The stub rates fit λo(c) = c exactly; the canceled round must not
	// have folded its records (they would keep the same exact fit here,
	// so also check the aggregate count).
	if n := c.belief[2].N; n != 10 {
		t.Fatalf("aggregates hold %d records at price 2; the canceled round must not fold (want 10)", n)
	}
}

// blockingExecutor parks in Execute until the context is canceled.
type blockingExecutor struct {
	entered chan int
}

func (e *blockingExecutor) Execute(ctx context.Context, round int, p htuning.Problem, a htuning.Allocation, seed uint64) (Observation, error) {
	e.entered <- round
	<-ctx.Done()
	return Observation{}, ctx.Err()
}

func TestCancelWhileExecutorBlocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exec := &blockingExecutor{entered: make(chan int)}
	cfg := twoGroup(1)
	cfg.Executor = exec
	c, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() {
		res, _ := c.Run(ctx)
		done <- res
	}()
	if round := <-exec.entered; round != 0 {
		t.Fatalf("first executed round %d, want 0", round)
	}
	if snap := c.Snapshot(); snap.Status != StatusRunning {
		t.Fatalf("mid-round status %s, want %s", snap.Status, StatusRunning)
	}
	cancel()
	res := <-done
	if res.Status != StatusCanceled || res.RoundsRun != 0 || res.Fit != nil {
		t.Fatalf("got status %s, %d rounds, fit %+v; want canceled before any round completed", res.Status, res.RoundsRun, res.Fit)
	}
}

func TestConfigValidation(t *testing.T) {
	valid := twoGroup(1)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no groups", func(c *Config) { c.Groups = nil }, "no groups"},
		{"zero tasks", func(c *Config) { c.Groups[0].Tasks = 0 }, "tasks"},
		{"nil class", func(c *Config) { c.Groups[0].Class = nil }, "class"},
		{"nil prior", func(c *Config) { c.Prior = nil }, "prior"},
		{"round budget too small", func(c *Config) { c.RoundBudget = 399 }, "budget"},
		{"total below round", func(c *Config) { c.Budget = 500 }, "total budget"},
		{"negative epsilon", func(c *Config) { c.Epsilon = -0.1 }, "epsilon"},
		{"worker choice without arrival", func(c *Config) { c.Market.WorkerChoice = true }, "arrival"},
		{"unknown drift", func(c *Config) { c.Drift = Drift{Kind: "melt"} }, "drift"},
		{"drift factor", func(c *Config) { c.Drift = Drift{Kind: DriftRate, Factor: 0} }, "factor"},
		{"shock round", func(c *Config) { c.Drift = Drift{Kind: DriftShock, Factor: 0.5, Round: -1} }, "round"},
		{"shrink without workers", func(c *Config) { c.Drift = Drift{Kind: DriftShrink, Factor: 0.9} }, "worker-choice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			cfg.Groups = append([]Group(nil), valid.Groups...)
			tc.mut(&cfg)
			if _, err := New(nil, cfg); err == nil {
				t.Fatal("invalid config accepted")
			} else if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRunTwiceRejected(t *testing.T) {
	c, err := New(nil, twoGroup(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("second Run on the same campaign must be rejected")
	}
}

func TestWorkerChoiceGuardHoldsContractViolatingFit(t *testing.T) {
	cfg := twoGroup(13)
	cfg.Name = "shrink"
	cfg.Market = MarketOptions{WorkerChoice: true, ArrivalRate: 12}
	cfg.Drift = Drift{Kind: DriftShrink, Factor: 0.85}
	res, err := Run(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Competition decouples acceptance from price, so the per-price MLE
	// violates the linearity contract; every round must hold the fit
	// pending rather than hand the solvers a decreasing rate model.
	for _, r := range res.Rounds {
		if r.Fit != nil {
			t.Fatalf("round %d published %+v under worker-choice competition", r.Round, r.Fit)
		}
		if r.FitPending == "" {
			t.Fatalf("round %d has no pending explanation", r.Round)
		}
	}
	if !res.Status.Terminal() {
		t.Fatalf("status %s not terminal", res.Status)
	}
}
