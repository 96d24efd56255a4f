package workload

import (
	"fmt"

	"hputune/internal/campaign"
	"hputune/internal/market"
	"hputune/internal/pricing"
	"hputune/internal/randx"
)

// PaperCampaignFleet builds the closed-loop scenario fleet: the paper's
// evaluation workloads recast as campaigns whose tuner starts from a
// deliberately mistuned prior and must re-fit the market from observed
// traces. Eight campaigns cover the Fig 2 scenarios (homogeneous,
// repetition, heterogeneous), the Fig 5(c) AMT-calibrated job, and
// stressed variants: gradual rate drift, a mid-campaign price shock, a
// shrinking worker pool (worker-choice competition), and a model-misfit
// market whose true curve is quadratic.
//
// Campaign seeds derive from seed in fleet order, so the whole fleet is
// a pure function of its one seed.
func PaperCampaignFleet(seed uint64) ([]campaign.Config, error) {
	seeds := randx.New(seed)
	truth := pricing.Linear{K: 2, B: 0.5}
	prior := pricing.Linear{K: 1, B: 1}
	class := func(name string, accept pricing.RateModel, proc float64) *market.TaskClass {
		return &market.TaskClass{Name: name, Accept: accept, ProcRate: proc, Accuracy: 1}
	}
	// fig2 builds the Fig 2 task population: 100 tasks as a 50/50 split
	// of 3- and 5-repetition groups (the "repe"/"heter" shapes; the homo
	// scenario overrides it with a single group).
	fig2 := func(proc3, proc5 float64) []campaign.Group {
		return []campaign.Group{
			{Name: "g3", Tasks: Fig2TaskCount / 2, Reps: 3, Class: class("g3", truth, proc3)},
			{Name: "g5", Tasks: Fig2TaskCount / 2, Reps: 5, Class: class("g5", truth, proc5)},
		}
	}
	base := campaign.Config{
		Prior:       prior,
		RoundBudget: 1000,
		MaxRounds:   12,
		Epsilon:     0.05,
	}

	homo := base
	homo.Name = "fig2-homo"
	homo.Groups = []campaign.Group{{Name: "g", Tasks: Fig2TaskCount, Reps: 5, Class: class("g", truth, 2.0)}}

	repe := base
	repe.Name = "fig2-repe"
	repe.Groups = fig2(2.0, 2.0)

	heter := base
	heter.Name = "fig2-heter"
	heter.Groups = fig2(2.0, 3.0)

	// Fig 5(c): the AMT-calibrated image-filter job — three task types
	// with 10/15/20 repetitions, prices in cents, the paper's $8 budget
	// per round. The prior is linear over cents, far from the calibrated
	// table truth.
	fig5c := campaign.Config{
		Name:        "fig5c",
		Prior:       pricing.Linear{K: 0.001, B: 0.001},
		RoundBudget: 800,
		MaxRounds:   12,
		Epsilon:     0.05,
	}
	reps := []int{10, 15, 20}
	votes := []int{4, 6, 8}
	for i := range reps {
		cls, err := ImageFilterClass(votes[i])
		if err != nil {
			return nil, fmt.Errorf("workload: fleet: %w", err)
		}
		fig5c.Groups = append(fig5c.Groups, campaign.Group{
			Name: cls.Name, Tasks: 1, Reps: reps[i], Class: cls,
		})
	}

	// Stressed variants. The drifted campaigns run with epsilon 0 — a
	// moving fit must never read as converged — and stop on budget
	// exhaustion or the round deadline instead.
	drift := base
	drift.Name = "fig2-repe-ratedrift"
	drift.Groups = fig2(2.0, 2.0)
	drift.Epsilon = 0
	drift.Budget = 5000
	drift.MaxRounds = 64
	drift.Drift = campaign.Drift{Kind: campaign.DriftRate, Factor: 0.85}

	shock := base
	shock.Name = "fig2-repe-priceshock"
	shock.Groups = fig2(2.0, 2.0)
	shock.Drift = campaign.Drift{Kind: campaign.DriftShock, Factor: 0.5, Round: 2}

	shrink := base
	shrink.Name = "fig2-repe-poolshrink"
	shrink.Groups = fig2(2.0, 2.0)
	shrink.MaxRounds = 8
	shrink.Market = campaign.MarketOptions{WorkerChoice: true, ArrivalRate: 12}
	shrink.Drift = campaign.Drift{Kind: campaign.DriftShrink, Factor: 0.85}

	quad := base
	quad.Name = "fig2-homo-quadratic"
	quad.Groups = []campaign.Group{
		{Name: "q3", Tasks: Fig2TaskCount / 2, Reps: 3, Class: class("q3", pricing.Quadratic{}, 2.0)},
		{Name: "q5", Tasks: Fig2TaskCount / 2, Reps: 5, Class: class("q5", pricing.Quadratic{}, 2.0)},
	}

	fleet := []campaign.Config{homo, repe, heter, fig5c, drift, shock, shrink, quad}
	for i := range fleet {
		fleet[i].Seed = seeds.Uint64()
	}
	return fleet, nil
}

// CrowdQueryCampaignFleet builds the crowd-DB scenario fleet: four
// campaigns that each run a full crowd query per round — the closed
// loop pricing real query operators instead of raw market tasks. The
// presets cover the two operators and the two pricing regimes the
// related work contrasts with H-Tuning:
//
//   - crowd-topk: a 16-item tournament top-k (k = 4), per-difficulty
//     pricing re-tuned round by round;
//   - crowd-groupby: a 12-item, 3-category group-by with
//     sequential-discovery phases;
//   - crowd-deadline: the top-k query under a latency SLO, with the
//     [29] comparator as the per-round admission check and baseline;
//   - crowd-retainer: the top-k query with half the repetitions served
//     from a pre-paid standby pool — the on-hold distribution shifts
//     toward zero, the regime change the fit guard must survive (rounds
//     may legitimately report fitPending until both regimes are
//     represented across the price levels).
//
// Campaign seeds derive from seed in fleet order; dataset seeds are
// fixed per preset, so the query workloads are identical across fleet
// seeds and only the marketplace randomness varies.
func CrowdQueryCampaignFleet(seed uint64) ([]campaign.Config, error) {
	seeds := randx.New(seed)
	truth := pricing.Linear{K: 2, B: 0.5}
	topk := &campaign.CrowdQuery{
		Kind:        "topk",
		Items:       16,
		K:           4,
		Reps:        3,
		DatasetSeed: 11,
		Accept:      truth,
		ProcRate:    2.0,
	}
	base := campaign.Config{
		Prior:       pricing.Linear{K: 1, B: 1},
		RoundBudget: 300,
		Budget:      6000,
		MaxRounds:   8,
		Epsilon:     0.05,
	}

	tk := base
	tk.Name = "crowd-topk"
	tk.Query = topk

	gb := base
	gb.Name = "crowd-groupby"
	gb.Query = &campaign.CrowdQuery{
		Kind:        "groupby",
		Items:       12,
		Classes:     []string{"bird", "boat", "bike"},
		Reps:        3,
		DatasetSeed: 12,
		Accept:      truth,
		ProcRate:    2.0,
	}
	gb.RoundBudget = 150
	gb.Budget = 4000

	dl := base
	dl.Name = "crowd-deadline"
	dl.Query = topk
	dl.Deadline = &campaign.DeadlineSLO{Makespan: 6, Confidence: 0.9, MaxPrice: 64}

	rt := base
	rt.Name = "crowd-retainer"
	rt.Query = topk
	rt.Retainer = &campaign.RetainerPool{Workers: 4, ServiceRate: 2, Fee: 0.5, Share: 0.5}

	fleet := []campaign.Config{tk, gb, dl, rt}
	for i := range fleet {
		fleet[i].Seed = seeds.Uint64()
	}
	return fleet, nil
}

// BenchCampaignFleet builds the BENCH_campaign.json workload: 16
// campaigns that each run exactly 8 full closed-loop rounds (epsilon 0
// on a stationary two-price market never converges, the budget outlasts
// the deadline), so one fleet run is 128 solve→simulate→re-fit rounds.
// It is the single source of truth for the campaign perf baseline: the
// htbench campaign suite drives it (also under `go test -bench` as
// BenchmarkSuite/campaign/CampaignFleet), so its numbers stay comparable
// across the trajectory.
func BenchCampaignFleet() []campaign.Config {
	return BenchCampaignFleetSize(16, 8)
}

// BenchCampaignFleetSize is the parameterized form behind the htbench
// scaling suites: campaigns copies of the benchmark campaign, each
// running exactly rounds closed-loop rounds (the budget scales with the
// round count so it never terminates a campaign early). Per-campaign
// seeds derive from the index, so a fleet of any size is deterministic.
func BenchCampaignFleetSize(campaigns, rounds int) []campaign.Config {
	truth := pricing.Linear{K: 2, B: 0.5}
	class := &market.TaskClass{Name: "t", Accept: truth, ProcRate: 2, Accuracy: 1}
	cfgs := make([]campaign.Config, campaigns)
	for i := range cfgs {
		cfgs[i] = campaign.Config{
			Name: fmt.Sprintf("bench-%02d", i),
			Groups: []campaign.Group{
				{Name: "g3", Tasks: 50, Reps: 3, Class: class},
				{Name: "g5", Tasks: 50, Reps: 5, Class: class},
			},
			Prior:       pricing.Linear{K: 1, B: 1},
			RoundBudget: 1000,
			Budget:      2000 * rounds,
			MaxRounds:   rounds,
			Epsilon:     0,
			Seed:        uint64(i + 1),
		}
	}
	return cfgs
}
