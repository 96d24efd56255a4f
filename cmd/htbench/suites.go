package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hputune/internal/benchio"
	"hputune/internal/campaign"
	"hputune/internal/crowddb"
	"hputune/internal/engine"
	"hputune/internal/htuning"
	"hputune/internal/inference"
	"hputune/internal/market"
	"hputune/internal/pricing"
	"hputune/internal/randx"
	"hputune/internal/workload"
)

// benchDef is one declared benchmark: a name, the inner rounds one
// iteration performs (0 when the benchmark has no such unit — it feeds
// ms_per_round), the worker-pool width it runs with (0 when it has no
// worker dimension), a note for readers of the JSON, and the body.
type benchDef struct {
	name    string
	rounds  int
	workers int
	note    string
	fn      func(b *testing.B)
}

// suiteDef is one BENCH_<suite>.json worth of benchmarks. finish, when
// set, post-processes the measured document once every benchmark has
// run (the scaling suite derives speedup-vs-serial there).
type suiteDef struct {
	name        string
	pkg         string
	description string
	benchmarks  []benchDef
	finish      func(d *suiteDoc)
}

// suiteDoc accumulates measurements into the benchio schema.
type suiteDoc struct{ benchio.Suite }

func newSuiteDoc(s suiteDef, benchtime, commit, date string) suiteDoc {
	return suiteDoc{benchio.Suite{
		Suite:       s.name,
		Package:     s.pkg,
		Description: s.description,
		Recorded:    date,
		Commit:      commit,
		Environment: benchio.CaptureEnvironment(),
		Command:     fmt.Sprintf("go run ./cmd/htbench -suite %s -benchtime %s -out .", s.name, benchtime),
	}}
}

func (d *suiteDoc) add(b benchDef, r testing.BenchmarkResult) {
	res := benchio.FromBenchmarkResult(b.name, r, b.rounds)
	res.Workers = b.workers
	res.Note = b.note
	d.Benchmarks = append(d.Benchmarks, res)
}

func writeSuite(path string, d suiteDoc) error { return benchio.Write(path, d.Suite) }

// Fixed workloads. Sizes and seeds are pinned so every run of a suite
// measures the same work — see docs/PERFORMANCE.md for the methodology.

// prior is the mistuned belief the campaign fleet starts from; the
// solver suites price under it so their integrals match the campaign
// hot path's.
var prior = pricing.Linear{K: 1, B: 1}

// solverProblem is the fleet round shape: 50 tasks × 3 reps and
// 50 × 5 under one task type, budget 1000.
func solverProblem(procRates ...float64) htuning.Problem {
	reps := []int{3, 5}
	p := htuning.Problem{Budget: 1000}
	for i, proc := range procRates {
		p.Groups = append(p.Groups, htuning.Group{
			Type:  &htuning.TaskType{Name: fmt.Sprintf("g%d", reps[i]), Accept: prior, ProcRate: proc},
			Tasks: 50,
			Reps:  reps[i],
		})
	}
	return p
}

// warmed returns an estimator pre-warmed by one run of fn, so the
// recorded iterations measure the steady serving state (cache hits plus
// solver mechanics) rather than a mix of cold and warm passes.
func warmed(b *testing.B, fn func(est *htuning.Estimator) error) *htuning.Estimator {
	b.Helper()
	est := htuning.NewEstimator()
	if err := fn(est); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return est
}

var solverSuite = suiteDef{
	name:        "solvers",
	pkg:         "hputune/internal/htuning",
	description: "solver hot paths on the fleet round shape (2 groups, 100 tasks, budget 1000) with a warmed shared estimator; Reference benchmarks are the unoptimized certification paths (the optimization ablation)",
	benchmarks: []benchDef{
		{name: "RASolve", note: "Algorithm 2 greedy, incremental-delta path", fn: func(b *testing.B) {
			p := solverProblem(2, 2)
			est := warmed(b, func(est *htuning.Estimator) error { _, err := htuning.SolveRepetition(est, p); return err })
			for i := 0; i < b.N; i++ {
				if _, err := htuning.SolveRepetition(est, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "RASolveReference", note: "Algorithm 2 greedy, unoptimized reference path", fn: func(b *testing.B) {
			p := solverProblem(2, 2)
			est := warmed(b, func(est *htuning.Estimator) error { _, err := htuning.SolveRepetitionReference(est, p); return err })
			for i := 0; i < b.N; i++ {
				if _, err := htuning.SolveRepetitionReference(est, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "RASolveDP", note: "exact multiple-choice knapsack certification solver", fn: func(b *testing.B) {
			p := solverProblem(2, 2)
			est := warmed(b, func(est *htuning.Estimator) error { _, err := htuning.SolveRepetitionDP(est, p); return err })
			for i := 0; i < b.N; i++ {
				if _, err := htuning.SolveRepetitionDP(est, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "HASolve", note: "Algorithm 3, incremental candidate scoring + binary-search O2", fn: func(b *testing.B) {
			p := solverProblem(2, 3)
			est := warmed(b, func(est *htuning.Estimator) error { _, err := htuning.SolveHeterogeneous(est, p); return err })
			for i := 0; i < b.N; i++ {
				if _, err := htuning.SolveHeterogeneous(est, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "HASolveReference", note: "Algorithm 3, unoptimized reference path", fn: func(b *testing.B) {
			p := solverProblem(2, 3)
			est := warmed(b, func(est *htuning.Estimator) error {
				_, err := htuning.SolveHeterogeneousNormReference(est, p, htuning.NormL1)
				return err
			})
			for i := 0; i < b.N; i++ {
				if _, err := htuning.SolveHeterogeneousNormReference(est, p, htuning.NormL1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "EASolve", note: "Algorithm 1 closed-form split, one group of 100 tasks x 5 reps", fn: func(b *testing.B) {
			p := htuning.Problem{
				Budget: 1000,
				Groups: []htuning.Group{{
					Type:  &htuning.TaskType{Name: "g", Accept: prior, ProcRate: 2},
					Tasks: 100,
					Reps:  5,
				}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := htuning.EvenAllocation(p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "SolveBatch64", rounds: 64, note: "64 distinct RA instances on the batch engine, GOMAXPROCS pool; ms_per_round is per instance", fn: func(b *testing.B) {
			problems := make([]htuning.Problem, 64)
			for i := range problems {
				problems[i] = solverProblem(2, 2)
				problems[i].Budget = 900 + i*4
			}
			est := warmed(b, func(est *htuning.Estimator) error {
				_, err := engine.SolveBatch(est, problems, engine.Options{})
				return err
			})
			for i := 0; i < b.N; i++ {
				if _, err := engine.SolveBatch(est, problems, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	},
}

// marketClass is the true market behaviour the simulator benchmarks
// drive: the fleet's 2p+0.5 acceptance curve.
var marketClass = &market.TaskClass{Name: "t", Accept: pricing.Linear{K: 2, B: 0.5}, ProcRate: 2, Accuracy: 1}

// marketSpecs builds the simulator batch: tasks identical three-rep
// tasks at price 2.
func marketSpecs(tasks, reps int) []market.TaskSpec {
	specs := make([]market.TaskSpec, tasks)
	for i := range specs {
		prices := make([]int, reps)
		for r := range prices {
			prices[r] = 2
		}
		specs[i] = market.TaskSpec{ID: fmt.Sprintf("t-%03d", i), Class: marketClass, RepPrices: prices}
	}
	return specs
}

var marketSuite = suiteDef{
	name:        "market",
	pkg:         "hputune/internal/market",
	description: "discrete-event marketplace simulator: single runs (steady-state buffer reuse) and the deterministic replication engine",
	benchmarks: []benchDef{
		{name: "SimRun", note: "one event-ordered run of 100 tasks x 3 reps, independent acceptance, recycled Buffers (steady state: first run's allocations excluded)", fn: func(b *testing.B) {
			specs := marketSpecs(100, 3)
			var buf market.Buffers
			runOnce := func() {
				sim, err := market.NewWithBuffers(market.Config{Seed: 1}, &buf)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.PostAll(specs); err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			runOnce()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runOnce()
			}
		}},
		{name: "SimRunWorkerChoice", note: "one run of 100 tasks x 3 reps under Poisson worker arrivals (rate 25); steady state", fn: func(b *testing.B) {
			specs := marketSpecs(100, 3)
			var buf market.Buffers
			runOnce := func() {
				sim, err := market.NewWithBuffers(market.Config{Mode: market.ModeWorkerChoice, ArrivalRate: 25, Seed: 1}, &buf)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.PostAll(specs); err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			runOnce()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runOnce()
			}
		}},
		{name: "ReplicatedMakespans64", rounds: 64, note: "64 deterministic replications of 100 tasks x 3 reps on the GOMAXPROCS pool; ms_per_round is per replication; steady state", fn: func(b *testing.B) {
			specs := marketSpecs(100, 3)
			cfg := market.Config{Seed: 1}
			if _, err := market.ReplicatedMakespans(cfg, specs, 64, 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := market.ReplicatedMakespans(cfg, specs, 64, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
	},
}

var inferenceSuite = suiteDef{
	name:        "inference",
	pkg:         "hputune/internal/inference",
	description: "the re-fit half of the closed loop (aggregate folding + linearity fit) and the estimator cache hit/miss costs it competes with",
	benchmarks: []benchDef{
		{name: "FitAggregates64", note: "per-price MLE + least-squares line over 64 price levels", fn: func(b *testing.B) {
			aggs := make(map[int]inference.PriceAggregate, 64)
			for price := 1; price <= 64; price++ {
				agg := aggs[price]
				agg.Add(200, 200/(2*float64(price)+0.5))
				aggs[price] = agg
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inference.FitAggregates(aggs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "FoldRecords", rounds: 400, note: "folding one round's 400 repetition records into cumulative price aggregates; ms_per_round is per record", fn: func(b *testing.B) {
			aggs := make(map[int]inference.PriceAggregate)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < 400; r++ {
					price := 1 + r%4
					agg := aggs[price]
					agg.Add(1, 0.4+float64(r%7)*0.05)
					aggs[price] = agg
				}
			}
		}},
		{name: "EstimatorCacheHit", note: "one memoized E[max] lookup (sharded second-chance hit: lock, map probe, touched-bit store — no list splice)", fn: func(b *testing.B) {
			est := htuning.NewEstimator()
			g := htuning.Group{Type: &htuning.TaskType{Name: "g", Accept: prior, ProcRate: 2}, Tasks: 50, Reps: 3}
			if _, err := est.GroupPhase1Mean(g, 2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.GroupPhase1Mean(g, 2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "EstimatorCacheHitParallel", workers: 4, note: "the EstimatorCacheHit critical section under 4 contending goroutines hammering one shard — the case the touched-bit hit path exists for (the old splice-on-hit serialized here)", fn: func(b *testing.B) {
			est := htuning.NewEstimator()
			g := htuning.Group{Type: &htuning.TaskType{Name: "g", Accept: prior, ProcRate: 2}, Tasks: 50, Reps: 3}
			if _, err := est.GroupPhase1Mean(g, 2); err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := est.GroupPhase1Mean(g, 2); err != nil {
						// Fatal must not be called off the benchmark goroutine
						// (testing.FailNow is undefined there); Error + return
						// fails the run and exits only this worker.
						b.Error(err)
						return
					}
				}
			})
		}},
		{name: "EstimatorCacheMiss", note: "one full E[max of 10 Erlang] integral per op: every lookup uses a never-seen price, so every op is a true miss regardless of cache layout", fn: func(b *testing.B) {
			est := htuning.NewEstimator()
			g := htuning.Group{Type: &htuning.TaskType{Name: "g", Accept: prior, ProcRate: 2}, Tasks: 10, Reps: 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.GroupPhase1Mean(g, 1+i); err != nil {
					b.Fatal(err)
				}
			}
		}},
	},
}

var campaignSuite = suiteDef{
	name:        "campaign",
	pkg:         "hputune/internal/campaign",
	description: "16 concurrent closed-loop campaigns x 8 rounds each (solve -> market-execute -> re-fit per round), shared estimator; one iteration = 128 rounds (workload.BenchCampaignFleet)",
	benchmarks: []benchDef{
		{name: "CampaignFleet", rounds: 128, workers: 4, note: "4-worker pool (explicit - workers=0 means GOMAXPROCS, which on a 1-CPU recorder silently ran the serial path); steady state (one warmup fleet run before the timer)", fn: func(b *testing.B) {
			cfgs := workload.BenchCampaignFleet()
			est := htuning.NewEstimator()
			ctx := context.Background()
			// One warmup run so the recorded iterations measure the
			// steady serving state (integrals cached, pools populated)
			// at any -benchtime, keeping smoke runs comparable to
			// baselines.
			if _, err := campaign.RunFleet(ctx, est, cfgs, 4); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := campaign.RunFleet(ctx, est, cfgs, 4)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.RoundsRun != 8 {
						b.Fatalf("campaign %s ran %d rounds, want 8", r.Name, r.RoundsRun)
					}
				}
			}
		}},
		{name: "CampaignFleetSerial", rounds: 128, workers: 1, note: "one worker - the parallel speedup denominator; steady state", fn: func(b *testing.B) {
			cfgs := workload.BenchCampaignFleet()
			est := htuning.NewEstimator()
			ctx := context.Background()
			if _, err := campaign.RunFleet(ctx, est, cfgs, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := campaign.RunFleet(ctx, est, cfgs, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
	},
}

// The scaling suite: speedup-vs-workers curves over three fleet shapes.
// Each benchmark runs one fixed fleet on an explicit worker count; the
// finish hook divides each fleet's serial (W1) ns/op by the wider runs'
// to fill speedup_vs_serial. Round counts shrink as fleets grow so the
// whole grid stays runnable in about a minute (`make bench-scaling`);
// total rounds per iteration stay comparable across shapes (128 / 512 /
// 10k), what varies is whether parallelism amortizes across few long
// campaigns or many short ones.
var scalingFleets = []struct {
	campaigns, rounds int
}{
	{16, 8},
	{256, 2},
	{10000, 1},
}

// scalingWorkerGrid is the independent variable of the speedup curves.
var scalingWorkerGrid = []int{1, 4, 16, 64}

// scalingBenchName is the grid cell's benchmark name ("Fleet256W16");
// the part before 'W' keys the serial denominator lookup.
func scalingBenchName(campaigns, workers int) string {
	return fmt.Sprintf("Fleet%dW%d", campaigns, workers)
}

func buildScalingSuite() suiteDef {
	s := suiteDef{
		name:        "scaling",
		pkg:         "hputune/internal/campaign",
		description: "speedup-vs-workers curves: three fleet shapes (16 campaigns x 8 rounds, 256 x 2, 10000 x 1) each run at 1/4/16/64 workers on a shared estimator; speedup_vs_serial is each fleet's W1 ns_per_op over the measured ns_per_op",
		finish: func(d *suiteDoc) {
			serial := make(map[string]float64)
			for _, r := range d.Benchmarks {
				if r.Workers == 1 {
					name, _, _ := strings.Cut(r.Name, "W")
					serial[name] = r.NsPerOp
				}
			}
			for i := range d.Benchmarks {
				r := &d.Benchmarks[i]
				name, _, _ := strings.Cut(r.Name, "W")
				if s := serial[name]; s > 0 && r.NsPerOp > 0 {
					r.SpeedupVsSerial = s / r.NsPerOp
				}
			}
		},
	}
	for _, f := range scalingFleets {
		campaigns, rounds := f.campaigns, f.rounds
		for _, workers := range scalingWorkerGrid {
			w := workers
			s.benchmarks = append(s.benchmarks, benchDef{
				name:    scalingBenchName(campaigns, w),
				rounds:  campaigns * rounds,
				workers: w,
				note:    fmt.Sprintf("%d campaigns x %d rounds on %d workers; steady state", campaigns, rounds, w),
				fn: func(b *testing.B) {
					cfgs := workload.BenchCampaignFleetSize(campaigns, rounds)
					est := htuning.NewEstimator()
					ctx := context.Background()
					// Warm the shared estimator with a small fleet of the
					// same campaign shape: every campaign is a copy, so a
					// 16-campaign run populates the same integral cache
					// keys without paying a full-size warmup fleet.
					warm := cfgs
					if len(warm) > 16 {
						warm = workload.BenchCampaignFleetSize(16, rounds)
					}
					if _, err := campaign.RunFleet(ctx, est, warm, w); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						results, err := campaign.RunFleet(ctx, est, cfgs, w)
						if err != nil {
							b.Fatal(err)
						}
						for _, r := range results {
							if r.RoundsRun != rounds {
								b.Fatalf("campaign %s ran %d rounds, want %d", r.Name, r.RoundsRun, rounds)
							}
						}
					}
				},
			})
		}
	}
	return s
}

var scalingSuite = buildScalingSuite()

// crowddbSuite measures the crowd-DB operator layer the crowd-query
// campaigns execute every round: one full tournament top-k, one full
// sequential-discovery group-by, and the whole 4-preset crowd fleet
// closed loop (tune → query → fold per round, including the
// deadline-SLO admission check and the retainer transform).
var crowddbSuite = suiteDef{
	name:        "crowddb",
	pkg:         "hputune/internal/crowddb",
	description: "crowd query operators on fixed datasets (32-item top-8 tournament, 24-item 4-class group-by; noisy default classes, uniform price 2) plus the 4-preset crowd campaign fleet closed loop",
	benchmarks: []benchDef{
		{name: "TopKQuery", rounds: 2, note: "32 items, k = 8: one elimination round plus the final full-pairwise round; one iteration = one full query", fn: func(b *testing.B) {
			items, err := crowddb.DotImages(32, 10, 100, randx.New(3))
			if err != nil {
				b.Fatal(err)
			}
			cs, err := crowddb.DefaultClassSet(pricing.Linear{K: 2, B: 0.5}, 2)
			if err != nil {
				b.Fatal(err)
			}
			exec := &crowddb.Executor{Classes: cs, Config: market.Config{Seed: 7}}
			policy := crowddb.UniformPrice(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exec.RunTopK(items, 8, 3, policy)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rounds) != 2 {
					b.Fatalf("tournament ran %d rounds, want 2", len(res.Rounds))
				}
			}
		}},
		{name: "GroupByQuery", note: "24 items, 4 latent classes: sequential-discovery phases (at most 5); one iteration = one full query", fn: func(b *testing.B) {
			items, err := crowddb.CategorizedItems(24, []string{"bird", "boat", "bike", "barn"}, 10, 100, randx.New(5))
			if err != nil {
				b.Fatal(err)
			}
			cs, err := crowddb.DefaultClassSet(pricing.Linear{K: 2, B: 0.5}, 2)
			if err != nil {
				b.Fatal(err)
			}
			exec := &crowddb.Executor{Classes: cs, Config: market.Config{Seed: 11}}
			policy := crowddb.UniformPrice(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exec.RunGroupBy(items, 3, policy)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Clusters) < 4 {
					b.Fatalf("group-by found %d clusters, want >= 4", len(res.Clusters))
				}
			}
		}},
		{name: "CrowdCampaignFleet", workers: 4, note: "workload.CrowdQueryCampaignFleet(1) to terminal statuses on a 4-worker pool; round counts are convergence-dependent but deterministic in the fleet seed; steady state (one warmup fleet run before the timer)", fn: func(b *testing.B) {
			cfgs, err := workload.CrowdQueryCampaignFleet(1)
			if err != nil {
				b.Fatal(err)
			}
			est := htuning.NewEstimator()
			ctx := context.Background()
			if _, err := campaign.RunFleet(ctx, est, cfgs, 4); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := campaign.RunFleet(ctx, est, cfgs, 4)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Status == campaign.StatusFailed || r.RoundsRun == 0 {
						b.Fatalf("campaign %s: status %s after %d rounds", r.Name, r.Status, r.RoundsRun)
					}
				}
			}
		}},
	},
}

// suites is the repository's one benchmark registry: the committed
// per-PR drift baselines, in the order files are written. `-suite all`,
// bench-smoke and the `go test -bench` adapter (BenchmarkSuite) run
// exactly these. The scaling suite is registered separately
// (selectSuites finds it by name) because its 10k-campaign cells are
// too heavy for the CI smoke gate — `make bench-scaling` runs it on
// demand.
var suites = []suiteDef{campaignSuite, solverSuite, marketSuite, inferenceSuite, crowddbSuite}
