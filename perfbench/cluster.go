package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/randx"
	"hputune/internal/server"
)

// Shape of the cluster phase: first a closed loop of crowd-DB fleets
// scattered through the router, then an open loop of routed solves and
// partitioned ingest.
const (
	clusterFleets    = 6    // over the whole phase, one per slice
	routedSolveRate  = 60.0 // solves per second, router and direct together
	routedIngestRate = 20.0 // partitioned ingest batches per second
	// directEvery sends every directEvery-th solve straight to a node,
	// the comparison that isolates the router hop.
	directEvery = 4
	// pollEvery and tickEvery are the benchmark's replication cadence:
	// follower polls and merger ticks.
	pollEvery = 100 * time.Millisecond
	tickEvery = time.Second
)

// clusterInputs are the generated inputs of the cluster-mixed load.
type clusterInputs struct {
	seed    uint64
	docs    []solveDoc
	batches []ingestBatch
}

// clusterRun is what the cluster-mixed phase measured.
type clusterRun struct {
	outs       []outcome
	late       samples
	pick       *randx.Rand // draws the spec each solve sends
	ingests    int         // ingest batches scheduled so far
	solves     int         // solves sent so far
	fleetS     samples
	fleetFail  int
	fleets     int
	ingested   []ingestBatch // every batch the cluster accepted, setup's included
	ticks      samples
	polls      samples
	lagMax     uint64
	replErrors int
}

// replicate drives follower polls and merger ticks on their cadence
// until ctx ends.
func replicate(ctx context.Context, r *clusterRig, tr *tracer, run *clusterRun) {
	poll := time.NewTicker(pollEvery)
	defer poll.Stop()
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-poll.C:
			if err := r.pollAll(ctx, tr, &run.polls, &run.lagMax); err != nil && ctx.Err() == nil {
				run.replErrors++
			}
		case <-tick.C:
			if err := timedTick(ctx, r, tr, &run.ticks); err != nil && ctx.Err() == nil {
				run.replErrors++
			}
		}
	}
}

func timedTick(ctx context.Context, r *clusterRig, tr *tracer, ticks *samples) error {
	id := tr.begin("cluster.merge_tick", 0)
	t0 := time.Now()
	err := r.merger.Tick(ctx)
	tr.end(id)
	ticks.addDur(time.Since(t0))
	return err
}

// warmCluster sends every spec of the corpus once straight to each node,
// untimed, so the open loop measures solves on warm estimators rather
// than the first solve of each spec on each node, whose share of a short
// loop follows the draw. Merger ticks still make the fitted specs cold.
func warmCluster(r *clusterRig, c *http.Client, in *clusterInputs) error {
	for _, n := range r.nodes {
		for _, d := range in.docs {
			status, raw, err := post(c, n.ts.URL+d.path(), d.body, "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("warm-up solve on %s: status %d: %s", n.name, status, raw)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runClusterSlice runs slice k of the cluster phase: fleets crowd-DB
// fleets scattered through the router back to back, then routed solves
// (a fixed share direct to a node) and partitioned ingest on one
// schedule over [k*slice, (k+1)*slice) of the phase's timeline, while
// followers and the merger run on their own cadence.
func runClusterSlice(ctx context.Context, r *clusterRig, c *http.Client, in *clusterInputs, run *clusterRun, k, fleets int, slice time.Duration, tr *tracer) error {
	rctx, stop := context.WithCancel(ctx)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		replicate(rctx, r, tr, run)
	}()
	defer func() {
		stop()
		rwg.Wait()
	}()

	mgr := func(id string) *campaign.Manager {
		return r.node(strings.SplitN(id, "-", 2)[0]).srv.Campaigns()
	}
	local := func(id string) string { return strings.SplitN(id, "-", 2)[1] }
	for i := 0; i < fleets; i++ {
		// The crowd preset's campaigns cost about the same at every seed;
		// the paper preset's fig5c campaign is either trivial or
		// dominates its fleet, which would make a per-fleet median flip
		// between the two. As in the fleet phase, the fleets are the same
		// under every workload seed, so every run leaves the nodes holding
		// the same campaigns when each open loop starts.
		run.fleets++
		doc := []byte(fmt.Sprintf(`{"fleet": {"preset": "crowd", "seed": %d}}`, run.fleets))
		t0 := time.Now()
		ids, err := startFleet(c, r.router.URL, [][]byte{doc})
		if err != nil {
			run.fleetFail++
			return err
		}
		times, err := waitDone(mgr, local, ids, t0)
		if err != nil {
			run.fleetFail++
			return err
		}
		run.fleetS.add(slices.Max(times).Seconds())
	}

	from, to := time.Duration(k)*slice, time.Duration(k+1)*slice
	evs := schedule("solve", routedSolveRate, from, to, func(int) int { return run.pick.Intn(len(in.docs)) })
	ingests := schedule("ingest", routedIngestRate, from, to, func(i int) int { return (run.ingests + i) % len(in.batches) })
	run.ingests += len(ingests)
	evs = append(evs, ingests...)
	var mu sync.Mutex
	outs := openLoop(ctx, evs, from, 2, &run.late, func(base time.Time, o *outcome) {
		o.sent = time.Since(base)
		switch o.ev.kind {
		case "ingest":
			b := in.batches[o.ev.idx]
			o.status, o.body, o.err = post(c, r.router.URL+"/v1/ingest", b.body, b.client)
			if o.err == nil && o.status == http.StatusOK {
				mu.Lock()
				run.ingested = append(run.ingested, b)
				mu.Unlock()
			}
		case "solve":
			d := in.docs[o.ev.idx]
			mu.Lock()
			run.solves++
			n := run.solves
			mu.Unlock()
			url := r.router.URL
			if n%directEvery == 0 {
				o.ev.kind = "direct"
				url = r.nodes[n/directEvery%len(r.nodes)].ts.URL
			}
			o.status, o.body, o.err = post(c, url+d.path(), d.body, "")
		}
		o.done = time.Since(base)
	})
	run.outs = append(run.outs, outs...)
	return nil
}

// settleCluster ships every node's tail to its follower and runs one
// last merger tick with no ingest in flight.
func settleCluster(r *clusterRig, tr *tracer, run *clusterRun) error {
	ctx := context.Background()
	if err := r.pollAll(ctx, tr, &run.polls, &run.lagMax); err != nil {
		return err
	}
	return timedTick(ctx, r, tr, &run.ticks)
}

// checkClusterFit requires every node's fit to be bit-identical to the
// fit of one server that ingested the concatenated trace.
func checkClusterFit(r *clusterRig, batches []ingestBatch) error {
	ref, err := server.New(server.Config{Node: "ref"})
	if err != nil {
		return err
	}
	defer ref.Close()
	h := ref.Handler()
	for _, b := range batches {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(b.body))
		req.Header.Set(server.DefaultClientHeader, b.client)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("reference ingest: status %d", rec.Code)
		}
	}
	want, ok := ref.Fit()
	if !ok {
		return fmt.Errorf("reference server published no fit")
	}
	for _, n := range r.nodes {
		got, ok := n.srv.Fit()
		if !ok {
			return fmt.Errorf("node %s has no fit", n.name)
		}
		if math.Float64bits(got.K) != math.Float64bits(want.K) || math.Float64bits(got.B) != math.Float64bits(want.B) {
			return fmt.Errorf("node %s fit %+v, single-server reference %+v", n.name, got, want)
		}
	}
	return nil
}
