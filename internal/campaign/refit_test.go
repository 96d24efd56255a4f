package campaign

import (
	"context"
	"fmt"
	"testing"

	"hputune/internal/market"
	"hputune/internal/pricing"
)

// The paper's Sec 3.3 anchor properties of the closed loop: re-fitting
// the price→rate belief from observed rounds must beat posting under a
// frozen wrong prior, and must land near the prices an oracle that
// knows the true model would post. Both replay per-group round prices
// on one shared set of market seeds, so the comparison measures the
// prices and not the draw.

// refitTruth is the market's actual acceptance behaviour here.
var refitTruth = pricing.Linear{K: 1, B: 1}

// refitGroups is an asymmetric Scenario II workload (same difficulty,
// different repetitions: RA). The belief's shape only matters when the
// workload is asymmetric — with equal task counts every belief yields
// the same near-uniform plan.
func refitGroups() []Group {
	class := &market.TaskClass{Name: "vote", Accept: refitTruth, ProcRate: 4, Accuracy: 1}
	return []Group{
		{Name: "big", Tasks: 40, Reps: 3, Class: class},
		{Name: "small", Tasks: 10, Reps: 5, Class: class},
	}
}

// runRefit runs a campaign over groups starting from prior.
func runRefit(t *testing.T, groups []Group, prior pricing.RateModel) Result {
	t.Helper()
	res, err := Run(context.Background(), nil, Config{
		Name:        "refit",
		Groups:      groups,
		Prior:       prior,
		RoundBudget: 2500,
		MaxRounds:   6,
		Epsilon:     0.05,
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rounds[0].Model, prior.Name(); got != want {
		t.Fatalf("round 0 priced with %q, want the prior %q", got, want)
	}
	return res
}

// finalRefitPrices returns the last round's prices, failing unless
// that round was priced by a fit rather than the prior.
func finalRefitPrices(t *testing.T, res Result) []int {
	t.Helper()
	last := res.Rounds[len(res.Rounds)-1]
	if res.Fit == nil || last.Model == res.Rounds[0].Model {
		t.Fatalf("final round %d priced with %q, fit %+v (%s: %s); the loop never re-fitted",
			last.Round, last.Model, res.Fit, res.Status, res.Reason)
	}
	return last.Prices
}

// replayMakespan posts every repetition of group i at prices[i] on the
// true market and returns the mean makespan over 64 fixed seeds.
func replayMakespan(t *testing.T, groups []Group, prices []int) float64 {
	t.Helper()
	var specs []market.TaskSpec
	for gi, g := range groups {
		for ti := 0; ti < g.Tasks; ti++ {
			reps := make([]int, g.Reps)
			for r := range reps {
				reps[r] = prices[gi]
			}
			specs = append(specs, market.TaskSpec{ID: fmt.Sprintf("%s-t%d", g.Name, ti), Class: g.Class, RepPrices: reps})
		}
	}
	spans, err := market.ReplicatedMakespans(market.Config{Seed: 4242}, specs, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range spans {
		total += s
	}
	return total / float64(len(spans))
}

// TestRefitBeatsFrozenWrongPrior: the wrong prior believes price barely
// moves the rate, so its plan starves the big group and spends the
// budget on the small one. Round 0 is priced by that prior, exactly
// what a frozen controller would post every round; the final round is
// priced by the re-fitted belief and must finish faster on the same
// seeds.
func TestRefitBeatsFrozenWrongPrior(t *testing.T) {
	groups := refitGroups()
	res := runRefit(t, groups, pricing.Linear{K: 0.05, B: 8})
	prior, refit := res.Rounds[0].Prices, finalRefitPrices(t, res)
	frozen, fitted := replayMakespan(t, groups, prior), replayMakespan(t, groups, refit)
	if fitted >= frozen {
		t.Errorf("re-fitted prices %v: mean makespan %.3f, not faster than frozen wrong-prior prices %v at %.3f",
			refit, fitted, prior, frozen)
	}
}

// TestRefitApproachesOracle: a campaign that starts from a badly wrong
// prior pays a learning tax in its first rounds, but its final prices
// must come within 2x of the makespan an oracle — round 0 of a campaign
// whose prior is the true model — achieves on the same seeds.
func TestRefitApproachesOracle(t *testing.T) {
	groups := refitGroups()
	oracle := replayMakespan(t, groups, runRefit(t, groups, refitTruth).Rounds[0].Prices)
	res := runRefit(t, groups, pricing.Linear{K: 20, B: 0.1})
	fitted := replayMakespan(t, groups, finalRefitPrices(t, res))
	if fitted > 2*oracle {
		t.Errorf("re-fitted mean makespan %.3f more than 2x the oracle's %.3f", fitted, oracle)
	}
}
