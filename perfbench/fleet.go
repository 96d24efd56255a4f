package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/crowddb"
	"hputune/internal/htuning"
	"hputune/internal/inference"
	"hputune/internal/market"
	"hputune/internal/pricing"
	"hputune/internal/randx"
	"hputune/internal/server"
	"hputune/internal/spec"
	"hputune/internal/store"
)

// fleetDocs are the preset documents of one fleet, all at the same
// seed: "paper" is the paper's scenario fleet, "crowd" the crowd-DB
// query fleet.
func fleetDocs(presets []string, seed uint64) [][]byte {
	docs := make([][]byte, len(presets))
	for i, p := range presets {
		docs[i] = []byte(fmt.Sprintf(`{"fleet": {"preset": %q, "seed": %d}}`, p, seed))
	}
	return docs
}

// fleetRun is what the fleet-durable phase measured.
type fleetRun struct {
	seeds     []uint64
	docs      [][][]byte // per fleet, the documents it posted
	results   [][]campaign.Result
	campaignS samples
	rounds    int
	wall      time.Duration
	attempted int
	failed    int
}

// startFleet posts docs and returns the started campaign ids, with the
// time each campaign reaches a terminal status, measured from t0 and
// taken from the owning manager's Done channel.
func startFleet(c *http.Client, url string, docs [][]byte) ([]string, error) {
	var ids []string
	for _, doc := range docs {
		status, raw, err := post(c, url+"/v1/campaigns", doc, "")
		if err != nil {
			return nil, err
		}
		if status != http.StatusAccepted {
			return nil, fmt.Errorf("start fleet: status %d: %s", status, raw)
		}
		var started server.CampaignStartResponse
		if err := json.Unmarshal(raw, &started); err != nil {
			return nil, err
		}
		ids = append(ids, started.IDs...)
	}
	return ids, nil
}

// waitDone blocks until every campaign is terminal and returns, per id,
// how long after t0 it got there. The calling goroutine waits on all the
// Done channels itself, so a completion is stamped as soon as the
// runtime wakes it rather than whenever a helper goroutine first runs.
func waitDone(mgr func(id string) *campaign.Manager, local func(id string) string, ids []string, t0 time.Time) ([]time.Duration, error) {
	out := make([]time.Duration, len(ids))
	cases := make([]reflect.SelectCase, len(ids))
	for i, id := range ids {
		ch, ok := mgr(id).Done(local(id))
		if !ok {
			return nil, fmt.Errorf("campaign %s unknown to its manager", id)
		}
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
	}
	for pending := len(ids); pending > 0; pending-- {
		i, _, _ := reflect.Select(cases)
		out[i] = time.Since(t0)
		cases[i].Chan = reflect.Value{} // a zero channel is never selected again
	}
	return out, nil
}

// runFleetSlice is a closed loop with one client: it posts fleets
// from..from+count-1 back to back to one durable node, each after the
// previous one is terminal. Every run of a workload posts the same corpus
// in the same order, fleet j at seed j+1 made of the presets in
// mixFleets[j%len(mixFleets)]. How long a paper fleet takes swings with
// its seed (fig5c converges in two rounds or runs about ten), so fleets
// drawn from the workload seed would make fleet_rounds_per_s follow the
// draw rather than the code.
func runFleetSlice(n *node, c *http.Client, mixFleets [][]string, run *fleetRun, from, count int) error {
	mgr := func(string) *campaign.Manager { return n.srv.Campaigns() }
	same := func(id string) string { return id }
	start := time.Now()
	defer func() { run.wall += time.Since(start) }()
	for j := from; j < from+count; j++ {
		s := uint64(j + 1)
		docs := fleetDocs(mixFleets[j%len(mixFleets)], s)
		t0 := time.Now()
		ids, err := startFleet(c, n.ts.URL, docs)
		if err != nil {
			run.failed++
			return err
		}
		times, err := waitDone(mgr, same, ids, t0)
		if err != nil {
			return err
		}
		results := make([]campaign.Result, len(ids))
		for i, id := range ids {
			res, ok := n.srv.Campaigns().Get(id)
			if !ok {
				return fmt.Errorf("campaign %s vanished", id)
			}
			results[i] = res
			run.attempted++
			if res.Status == campaign.StatusFailed {
				run.failed++
			}
			run.rounds += res.RoundsRun
			run.campaignS.add(times[i].Seconds())
		}
		run.seeds = append(run.seeds, s)
		run.docs = append(run.docs, docs)
		run.results = append(run.results, results)
	}
	return nil
}

// fleetConfigs parses a fleet's documents the way the node does (the
// fleet node never ingests, so no "fitted" model is in play).
func fleetConfigs(docs [][]byte) ([]campaign.Config, error) {
	var cfgs []campaign.Config
	for _, doc := range docs {
		c, err := spec.ParseCampaigns(doc, spec.BuildOpts{})
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, c...)
	}
	return cfgs, nil
}

// checkFleets requires every fleet's results to be byte-identical to
// campaign.RunFleet on the same presets and seeds. The estimator is
// shared with the node, so the reference runs on warm integrals; the
// results do not depend on cache state.
func checkFleets(run *fleetRun, est *htuning.Estimator) error {
	for k, s := range run.seeds {
		cfgs, err := fleetConfigs(run.docs[k])
		if err != nil {
			return err
		}
		ref, err := campaign.RunFleet(context.Background(), est, cfgs, 2)
		if err != nil {
			return fmt.Errorf("reference fleet %d: %w", s, err)
		}
		if len(ref) != len(run.results[k]) {
			return fmt.Errorf("fleet %d: %d campaigns, reference has %d", s, len(run.results[k]), len(ref))
		}
		for i := range ref {
			got, _ := json.Marshal(run.results[k][i])
			want, _ := json.Marshal(ref[i])
			if !bytes.Equal(got, want) {
				return fmt.Errorf("fleet %d campaign %d (%s) differs from campaign.RunFleet", s, i, ref[i].Name)
			}
		}
	}
	return nil
}

// recoverTimes are the timings of repeated re-opens of a state dir, in
// ms per re-open: store.Open, then server.Recover.
type recoverTimes struct {
	Open    []float64 `json:"open"`
	Recover []float64 `json:"recover"`
}

// totalS returns the median whole re-open in seconds.
func (rt recoverTimes) totalS() float64 {
	total := make([]float64, len(rt.Open))
	for i := range total {
		total[i] = (rt.Open[i] + rt.Recover[i]) / 1000
	}
	return median(total)
}

// measureRecover re-opens the final state dir recoverReps times in a fresh
// child process, as a restarted htuned would: the child's heap holds
// nothing but the recovered state, so the figure does not depend on what
// this process accumulated while measuring.
func measureRecover(dir string) (recoverTimes, error) {
	var rt recoverTimes
	exe, err := os.Executable()
	if err != nil {
		return rt, err
	}
	cmd := exec.Command(exe, "-recover-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rt, fmt.Errorf("recover child: %w", err)
	}
	if err := json.Unmarshal(out, &rt); err != nil {
		return rt, fmt.Errorf("recover child output: %w", err)
	}
	if len(rt.Open) != recoverReps || len(rt.Recover) != recoverReps {
		return rt, fmt.Errorf("recover child reported %d/%d re-opens, want %d", len(rt.Open), len(rt.Recover), recoverReps)
	}
	return rt, nil
}

// recoverLoop is the child side of measureRecover: recoverReps re-opens
// through the same store.Open + server.Recover path a restarted htuned
// takes.
func recoverLoop(dir string) (recoverTimes, error) {
	var rt recoverTimes
	for i := 0; i < recoverReps; i++ {
		runtime.GC() // each re-open starts from the same heap
		t0 := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return rt, err
		}
		t1 := time.Now()
		srv, err := server.Recover(nodeConfig("fleet"), st)
		t2 := time.Now()
		if err != nil {
			st.Close()
			return rt, err
		}
		rt.Open = append(rt.Open, ms(t1.Sub(t0)))
		rt.Recover = append(rt.Recover, ms(t2.Sub(t1)))
		srv.Close()
		if err := st.Close(); err != nil {
			return rt, err
		}
	}
	return rt, nil
}

// replayStats are the traced replay's counts.
type replayStats struct {
	rounds   int
	checked  int // rounds whose execution was checked against the snapshot
	misses   uint64
	lookups  uint64
	walBytes int64
	appends  uint64
	fsyncs   uint64
}

// replayFleets re-runs the recorded rounds of the first fleets stage by
// stage through each layer's entry point — the solver on a shared cold
// Estimator, the market simulator or crowd-DB executor, the fit, the
// WAL append — with a span around each. Every round is tuned under the
// belief the recorded run published, so its prices must equal the
// recorded snapshot's; market rounds must also reproduce the recorded
// makespan and record count.
func replayFleets(run *fleetRun, fleets int, dir string, tr *tracer) (replayStats, error) {
	var rs replayStats
	est := htuning.NewEstimator()
	st, err := store.Open(dir, store.Options{SnapshotEvery: math.MaxInt32})
	if err != nil {
		return rs, err
	}
	defer st.Close()
	next := 0
	for k := 0; k < fleets && k < len(run.seeds); k++ {
		off := 0 // index of the document's first campaign within the fleet
		for _, doc := range run.docs[k] {
			cfgs, err := spec.ParseCampaigns(doc, spec.BuildOpts{})
			if err != nil {
				return rs, err
			}
			ids := make([]string, len(cfgs))
			for i := range ids {
				next++
				ids[i] = fmt.Sprintf("c%d", next)
			}
			// The store accepts rounds only for campaigns a fleet record
			// introduced, as the serving layer journals them.
			if err := st.AppendFleet(doc, ids, nil); err != nil {
				return rs, err
			}
			for i, cfg := range cfgs {
				if err := replayCampaign(&rs, est, st, tr, ids[i], cfg, run.results[k][off+i]); err != nil {
					return rs, fmt.Errorf("fleet %d campaign %s: %w", run.seeds[k], cfg.Name, err)
				}
			}
			off += len(cfgs)
		}
	}
	cs := est.CacheStats()
	rs.misses, rs.lookups = cs.Misses, cs.Hits+cs.Misses
	m := st.Metrics()
	rs.walBytes, rs.appends, rs.fsyncs = m.WALBytes, m.Appends, m.Fsyncs
	return rs, nil
}

func replayCampaign(rs *replayStats, est *htuning.Estimator, st *store.Store, tr *tracer, id string, cfg campaign.Config, res campaign.Result) error {
	if res.DroppedRounds > 0 {
		return fmt.Errorf("recorded history dropped %d rounds", res.DroppedRounds)
	}
	var crowd *crowdReplay
	groups := cfg.Groups
	if cfg.Query != nil {
		var err error
		if crowd, groups, err = newCrowdReplay(*cfg.Query); err != nil {
			return err
		}
	}
	algo := "ra"
	for _, g := range groups[1:] {
		if g.Class.ProcRate != groups[0].Class.ProcRate {
			algo = "ha"
		}
	}
	seeds := randx.New(cfg.Seed)
	belief := cfg.Prior
	aggs := make(map[int]inference.PriceAggregate)
	var buf market.Buffers
	spent := 0
	for _, snap := range res.Rounds {
		roundSeed := seeds.Uint64()
		round := tr.begin("campaign.round", 0)

		sp := tr.begin("htuning.round_solve", round)
		p := roundProblem(groups, belief, snap.Budget)
		var prices []int
		var err error
		if algo == "ha" {
			var r htuning.HeterogeneousResult
			r, err = htuning.SolveHeterogeneous(est, p)
			prices = r.Prices
		} else {
			var r htuning.RepetitionResult
			r, err = htuning.SolveRepetition(est, p)
			prices = r.Prices
		}
		tr.end(sp)
		if err != nil {
			tr.end(round)
			return fmt.Errorf("round %d: solve: %w", snap.Round, err)
		}

		var recs []market.RepRecord
		var makespan float64
		if crowd != nil {
			sp = tr.begin("crowddb.query", round)
			recs, err = crowd.execute(prices, roundSeed)
		} else {
			sp = tr.begin("market.execute", round)
			recs, makespan, err = executeMarket(cfg, &buf, snap.Round, p, prices, roundSeed)
		}
		tr.end(sp)
		if err != nil {
			tr.end(round)
			return fmt.Errorf("round %d: execute: %w", snap.Round, err)
		}

		sp = tr.begin("inference.fit", round)
		for _, r := range recs {
			if d := r.OnHold(); r.Price >= 1 && d >= 0 && !math.IsInf(d, 1) {
				a := aggs[r.Price]
				a.Add(1, d)
				aggs[r.Price] = a
			}
		}
		_, _ = inference.FitAggregates(aggs) // the recorded snapshot says what was published
		tr.end(sp)

		spent += snap.Spent
		sp = tr.begin("store.append", round)
		err = st.AppendRound(id, snap, campaign.Checkpoint{
			Name: cfg.Name, Status: campaign.StatusRunning, RoundsRun: snap.Round + 1,
			HistoryCap: campaign.DefaultHistoryCap, Spent: spent, Aggs: aggs, Fit: snap.Fit,
		})
		tr.end(sp)
		tr.end(round)
		if err != nil {
			return fmt.Errorf("round %d: append: %w", snap.Round, err)
		}

		if !samePrices(prices, snap.Prices) {
			return fmt.Errorf("round %d: replayed prices %v, recorded %v", snap.Round, prices, snap.Prices)
		}
		if crowd == nil && cfg.Retainer == nil {
			if makespan != snap.Makespan || len(recs) != snap.Records {
				return fmt.Errorf("round %d: replayed makespan %v over %d records, recorded %v over %d",
					snap.Round, makespan, len(recs), snap.Makespan, snap.Records)
			}
			rs.checked++
		}
		rs.rounds++
		if snap.Fit != nil {
			belief = pricing.Floored{Base: pricing.Linear{K: snap.Fit.Slope, B: snap.Fit.Intercept}}
		}
	}
	return nil
}

func samePrices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundProblem is the instance a campaign round solves: the workload
// shape priced under the current belief, with only the processing rate
// taken from the true classes.
func roundProblem(groups []campaign.Group, belief pricing.RateModel, budget int) htuning.Problem {
	p := htuning.Problem{Budget: budget, Groups: make([]htuning.Group, len(groups))}
	for i, g := range groups {
		p.Groups[i] = htuning.Group{
			Type:  &htuning.TaskType{Name: g.Name, Accept: belief, ProcRate: g.Class.ProcRate},
			Tasks: g.Tasks,
			Reps:  g.Reps,
		}
	}
	return p
}

// executeMarket posts the round's allocation on the market simulator
// under the campaign's market options and drift, seeded as the campaign
// seeds the round.
func executeMarket(cfg campaign.Config, buf *market.Buffers, round int, p htuning.Problem, prices []int, seed uint64) ([]market.RepRecord, float64, error) {
	alloc, err := htuning.NewUniformAllocation(p, prices)
	if err != nil {
		return nil, 0, err
	}
	mcfg := market.Config{
		AbandonProb: cfg.Market.AbandonProb,
		AbandonRate: cfg.Market.AbandonRate,
		MaxTime:     cfg.Market.MaxTime,
		Seed:        seed,
	}
	if cfg.Market.WorkerChoice {
		mcfg.Mode = market.ModeWorkerChoice
		mcfg.ArrivalRate = cfg.Market.ArrivalRate
	}
	classes := make([]*market.TaskClass, len(cfg.Groups))
	scale := 1.0
	switch cfg.Drift.Kind {
	case campaign.DriftRate:
		scale = math.Pow(cfg.Drift.Factor, float64(round))
	case campaign.DriftShock:
		if round >= cfg.Drift.Round {
			scale = cfg.Drift.Factor
		}
	case campaign.DriftShrink:
		mcfg.ArrivalRate *= math.Pow(cfg.Drift.Factor, float64(round))
	}
	for i, g := range cfg.Groups {
		classes[i] = g.Class
		if scale != 1 {
			scaled := *g.Class
			scaled.Accept = pricing.Scaled{Base: g.Class.Accept, Factor: scale}
			classes[i] = &scaled
		}
	}
	sim, err := market.NewWithBuffers(mcfg, buf)
	if err != nil {
		return nil, 0, err
	}
	prefix := cfg.Name + "-r" + strconv.Itoa(round)
	for gi, g := range cfg.Groups {
		for ti := 0; ti < g.Tasks; ti++ {
			if err := sim.Post(market.TaskSpec{
				ID:        prefix + "-" + g.Name + "-t" + strconv.Itoa(ti),
				Class:     classes[gi],
				RepPrices: alloc.RepPrices[gi][ti],
			}); err != nil {
				return nil, 0, err
			}
		}
	}
	if _, err := sim.Run(); err != nil {
		return nil, 0, err
	}
	return sim.AppendRecords(nil), sim.Makespan(), nil
}

// crowdReplay runs a crowd-query campaign's rounds as full crowd-DB
// queries over the campaign's synthesized dataset.
type crowdReplay struct {
	q       campaign.CrowdQuery
	items   crowddb.Dataset
	classes *crowddb.ClassSet
	diffs   []crowddb.Difficulty
}

// newCrowdReplay synthesizes the query dataset and derives the groups
// the tuner prices: one per difficulty bucket of the query's first
// parallel phase, as the campaign's crowd executor derives them.
func newCrowdReplay(q campaign.CrowdQuery) (*crowdReplay, []campaign.Group, error) {
	if q.Reps <= 0 {
		q.Reps = 3
	}
	if q.ValueLo == 0 && q.ValueHi == 0 {
		q.ValueLo, q.ValueHi = 1, 100
	}
	classes, err := crowddb.DefaultClassSet(q.Accept, q.ProcRate)
	if err != nil {
		return nil, nil, err
	}
	r := randx.New(q.DatasetSeed)
	var items crowddb.Dataset
	var plan crowddb.Plan
	switch q.Kind {
	case "groupby":
		if items, err = crowddb.CategorizedItems(q.Items, q.Classes, q.ValueLo, q.ValueHi, r); err == nil {
			plan, err = crowddb.PlanGroupByPhase(items[1:], crowddb.Dataset{items[0]}, 0, q.Reps)
		}
	case "topk":
		if items, err = crowddb.DotImages(q.Items, q.ValueLo, q.ValueHi, r); err == nil {
			const podSize = 4
			size := podSize
			if len(items) <= max(2*q.K, podSize) {
				size = len(items)
			}
			plan, _, err = crowddb.PlanTopKRound(items, 0, q.Reps, size)
		}
	default:
		err = fmt.Errorf("unknown query kind %q", q.Kind)
	}
	if err != nil {
		return nil, nil, err
	}
	counts := make(map[crowddb.Difficulty]int)
	for _, t := range plan.Tasks {
		counts[t.Diff]++
	}
	cr := &crowdReplay{q: q, items: items, classes: classes}
	var groups []campaign.Group
	for _, d := range []crowddb.Difficulty{crowddb.Easy, crowddb.Medium, crowddb.Hard} {
		if counts[d] == 0 {
			continue
		}
		class, err := classes.Class(d)
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, campaign.Group{Name: d.String(), Tasks: counts[d], Reps: q.Reps, Class: class})
		cr.diffs = append(cr.diffs, d)
	}
	return cr, groups, nil
}

func (cr *crowdReplay) execute(prices []int, seed uint64) ([]market.RepRecord, error) {
	byDiff := make(map[crowddb.Difficulty]int, len(cr.diffs))
	for gi, d := range cr.diffs {
		byDiff[d] = prices[gi]
	}
	exec := &crowddb.Executor{Classes: cr.classes, Config: market.Config{Seed: seed}}
	policy := crowddb.PriceByDifficulty(byDiff)
	var phases []crowddb.PhaseOutcome
	if cr.q.Kind == "topk" {
		res, err := exec.RunTopK(cr.items, cr.q.K, cr.q.Reps, policy)
		if err != nil {
			return nil, err
		}
		phases = res.Rounds
	} else {
		res, err := exec.RunGroupBy(cr.items, cr.q.Reps, policy)
		if err != nil {
			return nil, err
		}
		phases = res.Phases
	}
	var recs []market.RepRecord
	for _, ph := range phases {
		recs = append(recs, ph.Records...)
	}
	return recs, nil
}
