// Command perfbench is the repository's end-to-end serving benchmark.
// It drives in-process durable htuned nodes (real state dirs, fsync on)
// over loopback HTTP from at most two request goroutines, checks every
// reply it can against the single-process reference, and prints every
// metric by name and unit as one JSON object on its last output line.
//
// Every run measures three phases, each cut into six slices that run
// in turn (fleet, solve, cluster, fleet, ...), so every phase samples the
// whole run; the workload's mix decides what the fleet and solve phases
// send and how the measured seconds are shared between the phases:
//
//	fleet    closed loop, one client: preset fleets posted back to back
//	         to one durable node (campaign, market, crowddb, htuning,
//	         store)
//	solve    open loop: RA and HA solves at two fixed rates beside a
//	         fixed-rate ingest stream that re-fits on every batch
//	         (server, spec, engine, htuning, inference, store)
//	cluster  crowd fleets scattered through a cluster.Router over three
//	         durable nodes, then an open loop of routed solves and
//	         partitioned ingest on warmed nodes, with followers and a
//	         merger driven on a fixed cadence (cluster, server, store)
//
// With -trace 1 the same phases run, then the recorded rounds and
// requests are replayed straight into each layer's entry points with a
// span around every call, and the per-layer metrics are printed instead.
// README.md lists the metrics and the layer each one belongs to.
//
//	bash perfbench/run.sh --workload fleet-durable --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hputune/internal/benchio"
	"hputune/internal/randx"
	"hputune/internal/server"
)

// mix is one workload's traffic. Every workload runs the fleet, solve
// and cluster phases in that order, so every workload prints every
// end-to-end metric; the workloads differ in what the fleet and solve
// phases send.
type mix struct {
	// solveShare and clusterShare are the shares of the measured seconds
	// the solve and cluster open loops run for.
	solveShare, clusterShare float64
	// fleets are the preset lists the fleet phase posts, fleet j posting
	// fleets[j%len(fleets)] together. Each slice of the phase runs
	// fleetsPerCycle fleets, so every run of a workload does the same
	// work and leaves a state dir of the same size to recover; on a 2-CPU
	// machine that takes about the rest of the measured seconds.
	fleets         [][]string
	fleetsPerCycle int
	// ingestRate is the rate per second of the ingest batches beside the
	// solves, each of which re-fits.
	ingestRate float64
	// fittedEvery makes every fittedEvery-th solve spec "fitted".
	fittedEvery int
}

var mixes = map[string]mix{
	// One durable node under 12 concurrent campaigns; the solve path is
	// a light read load.
	"fleet-durable": {
		solveShare: 0.2, clusterShare: 0.2,
		fleets: [][]string{{"paper", "crowd"}}, fleetsPerCycle: 6,
		ingestRate: 12, fittedEvery: 8,
	},
	// Fleets alternate between the fleet-durable size and the paper
	// preset alone, so crowd campaigns, which take about three times as
	// long as paper ones, are a fifth of the campaigns rather than a
	// third. The solve load has a quarter of the specs fitted beside a
	// third more re-fits.
	"solve-refit": {
		solveShare: 0.35, clusterShare: 0.2,
		fleets: [][]string{{"paper", "crowd"}, {"paper"}}, fleetsPerCycle: 5,
		ingestRate: 16, fittedEvery: 4,
	},
}

// Fixed run parameters.
const (
	setupReps   = 15 // set-ups at each end of a run; setup_s is their median
	cycles      = 6  // slices of each phase, run in turn
	recoverReps = 21 // re-opens of the final fleet state dir
	// replayFleetCount bounds how many recorded fleets the traced run
	// replays stage by stage.
	replayFleetCount = 2
	// minCoverage is the share of each replayed round's wall time its
	// stage spans must cover.
	minCoverage = 0.95
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally is one phase's failure accounting. Refused (503, 429) replies
// are failures too: they miss any latency limit.
type tally struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
}

func (t *tally) count(o outcome) {
	t.Attempted++
	switch {
	case o.err == nil && o.status >= 200 && o.status < 300:
		t.Succeeded++
	case o.status == http.StatusServiceUnavailable || o.status == http.StatusTooManyRequests:
		t.Refused++
		t.Failed++
	default:
		t.Failed++
	}
}

func main() {
	workload := flag.String("workload", "fleet-durable", "fleet-durable or solve-refit")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traceOn := flag.Int("trace", 0, "1 replays the recorded work through each layer with spans and prints per-layer metrics")
	recoverDir := flag.String("recover-dir", "", "internal: time re-opens of this state dir and print them as JSON")
	flag.Parse()
	if *recoverDir != "" {
		rt, err := recoverLoop(*recoverDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		_ = json.NewEncoder(os.Stdout).Encode(rt) // the parent reports a short write
		return
	}
	m, ok := mixes[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	root := filepath.Join(".bench_build", "perfbench-state", fmt.Sprint(os.Getpid()))
	res, detail, err := run(root, *seed, time.Duration(*seconds)*time.Second, m, *traceOn == 1)
	if rmErr := os.RemoveAll(root); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail["workload"] = *workload
	detail["seed"] = *seed
	detail["seconds"] = *seconds
	detail["trace"] = *traceOn
	detail["environment"] = benchio.CaptureEnvironment()
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(detail) // stdout failures surface as a missing result line
	_ = enc.Encode(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// rig holds every node a run measures.
type rig struct {
	fleet   *node
	solve   *node
	cl      *clusterRig
	client  *http.Client
	solveIn *solveInputs
	clIn    *clusterInputs
	fits    *fitTracker
	clRun   *clusterRun
}

func (r *rig) close() {
	for _, n := range []*node{r.fleet, r.solve} {
		if n != nil {
			n.close()
		}
	}
	if r.cl != nil {
		r.cl.close()
	}
	r.client.CloseIdleConnections()
}

// setup generates the inputs and brings up every node: the fleet node,
// the solve node with its first fit published, and the cluster with its
// followers seeded and one merged fit on every node.
func setup(dir string, seed uint64, m mix) (*rig, error) {
	r := &rig{client: newHTTPClient(), fits: &fitTracker{}, clRun: &clusterRun{}}
	var err error
	if r.solveIn, err = newSolveInputs(seed, m); err != nil {
		return nil, err
	}
	if r.clIn, err = newClusterInputs(seed); err != nil {
		return nil, err
	}
	r.clRun.pick = randx.New(seed ^ 0xc1a5)
	if r.fleet, err = openNode("fleet", filepath.Join(dir, "fleet")); err != nil {
		return nil, err
	}
	if r.solve, err = openNode("solve", filepath.Join(dir, "solve")); err != nil {
		r.close()
		return nil, err
	}
	b := r.solveIn.batches[0]
	status, raw, err := post(r.client, r.solve.ts.URL+"/v1/ingest", b.body, b.client)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("initial ingest: status %d: %s", status, raw)
	}
	if err == nil {
		err = r.fits.observe(raw)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	if r.cl, err = openCluster(filepath.Join(dir, "cluster")); err != nil {
		r.close()
		return nil, err
	}
	for _, b := range r.clIn.batches[:3] {
		status, raw, err := post(r.client, r.cl.router.URL+"/v1/ingest", b.body, b.client)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("initial cluster ingest: status %d: %s", status, raw)
		}
		if err != nil {
			r.close()
			return nil, err
		}
		r.clRun.ingested = append(r.clRun.ingested, b)
	}
	if err := settleCluster(r.cl, newTracer(false), &clusterRun{}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func newSolveInputs(seed uint64, m mix) (*solveInputs, error) {
	docs, err := genSolveDocs(240, m.fittedEvery)
	if err != nil {
		return nil, err
	}
	batches, err := genIngestBatches("solve", seed, 8)
	if err != nil {
		return nil, err
	}
	return &solveInputs{seed: seed, docs: docs, batches: batches, m: m}, nil
}

func newClusterInputs(seed uint64) (*clusterInputs, error) {
	docs, err := genSolveDocs(240, 8)
	if err != nil {
		return nil, err
	}
	batches, err := genIngestBatches("cluster", seed, 12)
	if err != nil {
		return nil, err
	}
	return &clusterInputs{seed: seed, docs: docs, batches: batches}, nil
}

// run performs one benchmark run and returns the result line plus the
// detail line printed before it.
func run(root string, seed uint64, total time.Duration, m mix, traced bool) (result, map[string]any, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	detail := map[string]any{}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	nsamp := map[string]int{}

	// Set-up, several times; the last rig is the one measured.
	var setups []float64
	timedSetup := func(i int) (*rig, error) {
		runtime.GC()
		t0 := time.Now()
		rr, err := setup(filepath.Join(root, fmt.Sprintf("run%d", i)), seed, m)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return rr, nil
	}
	var r *rig
	for i := 0; i < setupReps; i++ {
		rr, err := timedSetup(i)
		if err != nil {
			return res, nil, err
		}
		if i < setupReps-1 {
			rr.close()
		} else {
			r = rr
		}
	}
	defer r.close()
	tr := newTracer(traced)
	ctx := context.Background()
	share := func(f float64) time.Duration { return time.Duration(float64(total) * f) }

	// The phases run in cycles slices each, fleet, solve and cluster in
	// turn, so every phase samples the whole run: on a shared machine the
	// speed of the host drifts over tens of seconds, and a phase measured
	// in one stretch reads whatever stretch it fell in.
	fleetRun := &fleetRun{}
	solveRun := newSolveRun(r.solveIn, share(m.solveShare)/cycles)
	clRun := r.clRun
	if err := warmCluster(r.cl, r.client, r.clIn); err != nil {
		return res, nil, fmt.Errorf("cluster warm-up: %w", err)
	}
	for k := 0; k < cycles; k++ {
		runtime.GC()
		if err := runFleetSlice(r.fleet, r.client, m.fleets, fleetRun, k*m.fleetsPerCycle, m.fleetsPerCycle); err != nil {
			return res, nil, fmt.Errorf("fleet phase: %w", err)
		}
		runtime.GC()
		runSolveSlice(ctx, r.solve, r.client, r.solveIn, r.fits, solveRun, k)
		runtime.GC()
		if err := runClusterSlice(ctx, r.cl, r.client, r.clIn, clRun, k, clusterFleets/cycles, share(m.clusterShare)/cycles, tr); err != nil {
			return res, nil, fmt.Errorf("cluster phase: %w", err)
		}
	}
	if err := settleCluster(r.cl, tr, clRun); err != nil {
		return res, nil, fmt.Errorf("cluster settle: %w", err)
	}

	// Accounting.
	tallies := map[string]*tally{"fleet": {Attempted: fleetRun.attempted, Succeeded: fleetRun.attempted - fleetRun.failed, Failed: fleetRun.failed}}
	for name, outs := range map[string][]outcome{"solve": solveRun.outs, "cluster": clRun.outs} {
		for _, o := range outs {
			key := name + "." + o.ev.kind
			if tallies[key] == nil {
				tallies[key] = &tally{}
			}
			tallies[key].count(o)
		}
	}
	tallies["cluster.fleet"] = &tally{Attempted: clRun.fleets, Succeeded: clRun.fleets - clRun.fleetFail, Failed: clRun.fleetFail}
	tallies["cluster.replication"] = &tally{Attempted: clRun.polls.n() + clRun.ticks.n(), Failed: clRun.replErrors}
	tallies["cluster.replication"].Succeeded = tallies["cluster.replication"].Attempted - clRun.replErrors
	for _, t := range tallies {
		res.Attempted += t.Attempted
		res.Failed += t.Failed
	}
	detail["accounting"] = tallies
	detail["error_frac"] = float64(res.Failed) / float64(res.Attempted)

	// Correctness gates.
	var gates []string
	gate := func(name string, err error) {
		if err != nil {
			res.Correct = false
			gates = append(gates, name+": "+err.Error())
			fmt.Fprintf(os.Stderr, "perfbench: gate %s failed: %v\n", name, err)
			return
		}
		gates = append(gates, name+": ok")
	}
	gate("fleet-vs-RunFleet", checkFleets(fleetRun, r.fleet.srv.Estimator()))
	nChecked, err := checkSolves(solveRun)
	gate("solve-vs-engine", err)
	detail["solves_checked"] = nChecked
	gate("cluster-fit-vs-single-server", checkClusterFit(r.cl, clRun.ingested))

	fleetStore := r.fleet.st.Metrics()

	// Latency samples from the open loops.
	var solveHigh, solveService, ingest, routed, routedService, direct, routedIngest samples
	sloOK, solveSent := 0, 0
	for _, o := range solveRun.outs {
		switch o.ev.kind {
		case "solve":
			solveSent++
			if o.err == nil && o.status == http.StatusOK {
				if o.latency() <= sloLimit {
					sloOK++
				}
				solveService.addDur(o.service())
				if solveRun.high(o.ev) {
					solveHigh.addDur(o.latency())
				}
			}
		case "ingest":
			if o.err == nil && o.status == http.StatusOK {
				ingest.addDur(o.latency())
			}
		}
	}
	for _, o := range clRun.outs {
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		switch o.ev.kind {
		case "solve":
			routed.addDur(o.latency())
			routedService.addDur(o.service())
		case "direct":
			direct.addDur(o.service())
		case "ingest":
			routedIngest.addDur(o.latency())
		}
	}
	late := &samples{v: append(append([]float64(nil), solveRun.late.v...), clRun.late.v...)}

	if !traced {
		// As many set-ups again after the measured phases: set-up is
		// mostly fsyncs, whose cost drifts with the machine's other I/O,
		// so setup_s samples both ends of the run.
		for i := 0; i < setupReps; i++ {
			rr, err := timedSetup(setupReps + i)
			if err != nil {
				return res, nil, err
			}
			rr.close()
		}
		// A campaign's own POST-to-terminal time follows the order in
		// which the runtime schedules the dozen campaigns sharing the two
		// CPUs, so the end-to-end figure is the fleet phase's throughput:
		// the same rounds every run over the phase's wall time.
		put("fleet_rounds_per_s", "1/s", float64(fleetRun.rounds)/fleetRun.wall.Seconds())
		nsamp["fleet_rounds"] = fleetRun.rounds
		put("solve_ms_p50", "ms", solveHigh.q(0.5))
		// The p95 sits inside the re-fit misses (a tenth or more of the
		// high-rate solves); the p99 ranks the dozen slowest of them and
		// moves by a third between runs, so it is a traced-run reading.
		put("solve_ms_p95", "ms", solveHigh.q(0.95))
		nsamp["solve_ms"] = solveHigh.n()
		put("solve_slo_frac", "frac", float64(sloOK)/float64(max(solveSent, 1)))
		nsamp["solve_slo_frac"] = solveSent
		put("ingest_ms_p50", "ms", ingest.q(0.5))
		nsamp["ingest_ms"] = ingest.n()
		put("routed_solve_ms_p50", "ms", routed.q(0.5))
		nsamp["routed_solve_ms"] = routed.n()
		put("routed_ingest_ms_p50", "ms", routedIngest.q(0.5))
		nsamp["routed_ingest_ms"] = routedIngest.n()
		put("setup_s", "s", median(setups))
		detail["samples"] = nsamp
		detail["gates"] = gates
		return res, detail, nil
	}

	// Shut the fleet node down the way htuned does on SIGTERM: compact,
	// then close. Recovery then reads one snapshot whose size follows the
	// work done, not where the WAL happened to be in its compaction cycle.
	r.fleet.ts.Close()
	r.fleet.srv.Close()
	if err := r.fleet.st.Compact(); err != nil {
		return res, nil, fmt.Errorf("compact fleet state: %w", err)
	}
	if err := r.fleet.st.Close(); err != nil {
		return res, nil, fmt.Errorf("close fleet state: %w", err)
	}
	recovery, err := measureRecover(r.fleet.dir)
	if err != nil {
		return res, nil, fmt.Errorf("recover: %w", err)
	}
	r.fleet = nil

	// Traced run: replay the recorded work layer by layer.
	rs, err := replayFleets(fleetRun, replayFleetCount, filepath.Join(root, "replay"), tr)
	gate("replay-prices-vs-recorded-rounds", err)
	fittedMisses, err := replaySolves(solveRun, tr)
	gate("solve-replay", err)
	cov := tr.coverage("campaign.round")
	minCov := 1.0
	for _, c := range cov {
		minCov = min(minCov, c)
	}
	if len(cov) == 0 {
		minCov = 0
	}
	if minCov < minCoverage {
		gate("stage-coverage", fmt.Errorf("a replayed round's stage spans cover %.3f of its wall time, below %.2f", minCov, minCoverage))
	} else {
		gate("stage-coverage", nil)
	}

	// Per-campaign and whole-fleet times: a campaign's time follows the
	// order the runtime schedules a fleet's campaigns in, and a cluster
	// fleet lasts as long as its slowest campaign, so these are readings,
	// not regression gates.
	put("campaign.campaign_s_p50", "s", fleetRun.campaignS.q(0.5))
	put("campaign.campaign_s_p90", "s", fleetRun.campaignS.q(0.9))
	put("cluster.fleet_s_p50", "s", clRun.fleetS.q(0.5))
	// Tails whose run-to-run spread is too wide for a regression bound on
	// a shared 2-CPU machine: the re-open time flips between garbage
	// collector modes, and the p90/p95 sit where requests start queueing
	// behind a cold solve on one of the two request goroutines.
	put("server.recover_s", "s", recovery.totalS())
	put("server.ingest_ms_p90", "ms", ingest.q(0.9))
	put("server.solve_ms_p99", "ms", solveHigh.q(0.99))
	put("cluster.routed_solve_ms_p95", "ms", routed.q(0.95))
	put("cluster.routed_ingest_ms_p90", "ms", routedIngest.q(0.9))
	d := tr.durations
	roundSolve, rounds := d("htuning.round_solve"), d("campaign.round")
	put("htuning.round_solve_ms_p50", "ms", roundSolve.q(0.5))
	put("htuning.round_solve_ms_p95", "ms", roundSolve.q(0.95))
	put("htuning.estimator_misses", "count", float64(rs.misses))
	put("htuning.estimator_hit_ratio", "frac", 1-float64(rs.misses)/float64(max(rs.lookups, 1)))
	put("htuning.misses_per_refit", "count", float64(fittedMisses)/float64(max(solveRun.refits, 1)))
	engineSolve, parse := d("engine.solve"), d("spec.parse")
	put("engine.solve_ms_p50", "ms", engineSolve.q(0.5))
	put("engine.solve_ms_p99", "ms", engineSolve.q(0.99))
	put("spec.parse_ms_p50", "ms", parse.q(0.5))
	put("server.http_overhead_ms_p50", "ms", solveService.q(0.5)-engineSolve.q(0.5)-parse.q(0.5))
	put("market.execute_ms_p50", "ms", d("market.execute").q(0.5))
	put("market.execute_ms_p95", "ms", d("market.execute").q(0.95))
	put("crowddb.query_ms_p50", "ms", d("crowddb.query").q(0.5))
	put("campaign.round_ms_p50", "ms", rounds.q(0.5))
	put("campaign.round_ms_p95", "ms", rounds.q(0.95))
	put("inference.fit_ms_p50", "ms", d("inference.fit").q(0.5))
	appendMS := d("store.append")
	put("store.append_ms_p50", "ms", appendMS.q(0.5))
	put("store.append_ms_p99", "ms", appendMS.q(0.99))
	put("store.fsyncs_per_append", "ratio", float64(fleetStore.Fsyncs)/float64(max(fleetStore.Appends, 1)))
	put("store.open_ms", "ms", median(recovery.Open))
	put("server.recover_ms", "ms", median(recovery.Recover))
	put("store.wal_bytes_per_round", "bytes", float64(rs.walBytes)/float64(max(rs.rounds, 1)))
	rejects, err := admissionRejects(append([]*node{r.solve}, r.cl.nodes...))
	gate("stats", err)
	put("server.admission_rejects", "count", float64(rejects))
	put("cluster.route_overhead_ms_p50", "ms", routedService.q(0.5)-direct.q(0.5))
	put("cluster.merge_tick_ms_p50", "ms", d("cluster.merge_tick").q(0.5))
	put("cluster.merge_tick_ms_p99", "ms", d("cluster.merge_tick").q(0.99))
	put("cluster.merge_skips", "count", float64(r.cl.merger.Stats().Skipped))
	put("cluster.follower_poll_ms_p50", "ms", d("cluster.follower_poll").q(0.5))
	put("cluster.replica_lag_records_max", "count", float64(clRun.lagMax))
	put("gen.late_ms_p99", "ms", late.q(0.99))
	put("trace.overhead_frac", "frac", tr.overhead())
	put("trace.stage_coverage_min", "frac", minCov)
	detail["replay"] = map[string]any{"rounds": rs.rounds, "executions_checked": rs.checked, "appends": rs.appends, "fsyncs": rs.fsyncs}
	detail["samples"] = map[string]int{
		"campaign.round": rounds.n(), "engine.solve": engineSolve.n(), "store.append": appendMS.n(),
		"cluster.merge_tick": d("cluster.merge_tick").n(), "gen.late": late.n(),
	}
	detail["gates"] = gates
	return res, detail, nil
}

// admissionRejects sums the gate refusals every node counted.
func admissionRejects(nodes []*node) (uint64, error) {
	var total uint64
	for _, n := range nodes {
		rec := httptest.NewRecorder()
		n.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st server.StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return 0, fmt.Errorf("stats of %s: %w", n.name, err)
		}
		total += st.Serve.Rejected + st.Serve.IngestRejected
	}
	return total, nil
}
