package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"hputune/internal/engine"
	"hputune/internal/htuning"
	"hputune/internal/inference"
	"hputune/internal/pricing"
	"hputune/internal/randx"
	"hputune/internal/server"
	"hputune/internal/spec"
	"hputune/internal/trace"
	"hputune/internal/workload"
)

const (
	// Solve arrival rates per second, over the first third of each solve
	// slice and over the rest.
	solveLowRate  = 40.0
	solveHighRate = 120.0
	// sloLimit is the latency a solve must be answered within, from its
	// due time, to count toward solve_slo_frac.
	sloLimit = 20 * time.Millisecond
)

// tracePrices and tracePerPrice shape every ingest batch: dyadic on-hold
// durations at four price levels (see workload.DyadicTrace), so any
// partition of the stream sums to the same aggregates bit for bit.
var tracePrices = []int{2, 4, 6, 8}

const tracePerPrice = 8

// solveDoc is one generated /v1/solve or /v1/solve-heterogeneous body.
type solveDoc struct {
	body   []byte
	hetero bool
	fitted bool
}

// path is the endpoint that solves d.
func (d solveDoc) path() string {
	if d.hetero {
		return "/v1/solve-heterogeneous"
	}
	return "/v1/solve"
}

type docModel struct {
	Kind string  `json:"kind"`
	K    float64 `json:"k,omitempty"`
	B    float64 `json:"b,omitempty"`
}

type docGroup struct {
	Name     string   `json:"name"`
	Tasks    int      `json:"tasks"`
	Reps     int      `json:"reps"`
	ProcRate float64  `json:"procRate"`
	Model    docModel `json:"model"`
}

type docProblem struct {
	Budget int        `json:"budget"`
	Groups []docGroup `json:"groups"`
}

// linearModels are the fixed models the specs that are not "fitted" use.
// They are the same under every seed: the price range a model gives sets
// what every solve under it costs, so three models drawn per seed would
// make the solve latencies follow the draw.
var linearModels = []docModel{
	{Kind: "linear", K: 0.75, B: 0.25},
	{Kind: "linear", K: 1.25, B: 0.5},
	{Kind: "linear", K: 2, B: 1},
}

// genSolveDocs builds a corpus of n solve specs. Every fittedEvery-th is
// priced by the service's "fitted" model and has one fixed shape per
// solver; the rest draw their shape and one of linearModels from a fixed
// stream. The corpus is the same under every workload seed, which only
// picks the order specs are sent in: what a solve costs follows its
// shape, so a corpus drawn per seed moved the latency median with the
// draw. Odd docs go to the heterogeneous solver, with distinct
// processing rates per group.
func genSolveDocs(n, fittedEvery int) ([]solveDoc, error) {
	r := randx.New(0x501fe)
	docs := make([]solveDoc, n)
	for i := range docs {
		d := solveDoc{hetero: i%2 == 1, fitted: i%fittedEvery == 0}
		var p docProblem
		minBudget := 0
		groups, mult := 2+r.Intn(2), 3+r.Intn(4)
		if d.fitted {
			groups, mult = 3, 4
		}
		for g := 0; g < groups; g++ {
			grp := docGroup{
				Name:     fmt.Sprintf("g%d", g),
				Tasks:    2 + r.Intn(5),
				Reps:     1 + r.Intn(3),
				ProcRate: 2,
				Model:    linearModels[r.Intn(len(linearModels))],
			}
			if d.hetero {
				grp.ProcRate = 1 + float64(g) + float64(r.Intn(4))/4
			}
			if d.fitted {
				grp.Tasks, grp.Reps, grp.Model = 4, 1+g, docModel{Kind: "fitted"}
				if d.hetero {
					grp.ProcRate = 1 + float64(g)
				}
			}
			minBudget += grp.Tasks * grp.Reps
			p.Groups = append(p.Groups, grp)
		}
		p.Budget = minBudget * mult
		raw, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		d.body = raw
		docs[i] = d
	}
	return docs, nil
}

// ingestBatch is one trace upload under one client identity.
type ingestBatch struct {
	client string
	body   []byte
}

// genIngestBatches builds one trace upload per client, in an order drawn
// from seed. Client names are fixed, so every seed re-fits over the same
// population and only the order of the re-fits differs.
func genIngestBatches(prefix string, seed uint64, clients int) ([]ingestBatch, error) {
	out := make([]ingestBatch, clients)
	for i, c := range randx.New(seed ^ 0x1a9e57).Perm(clients) {
		name := fmt.Sprintf("%s-%d", prefix, c)
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, workload.DyadicTrace(name, tracePrices, tracePerPrice)); err != nil {
			return nil, err
		}
		out[i] = ingestBatch{client: name, body: buf.Bytes()}
	}
	return out, nil
}

// fitSnap is a published fit as an ingest reply reported it. JSON
// floats round-trip exactly, so the model rebuilt from it is the one
// the server priced with.
type fitSnap struct {
	total            uint64
	slope, intercept float64
}

func (f fitSnap) model() pricing.RateModel { return pricing.Linear{K: f.slope, B: f.intercept} }

// fitTracker follows which fit is in force on a node: the fit of the
// ingest with the most records committed, while no ingest is in flight.
type fitTracker struct {
	mu      sync.Mutex
	started int
	done    int
	latest  fitSnap
}

func (ft *fitTracker) observe(raw []byte) error {
	var resp server.IngestResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if resp.Fit != nil && resp.TotalRecords > ft.latest.total {
		ft.latest = fitSnap{total: resp.TotalRecords, slope: resp.Fit.Slope, intercept: resp.Fit.Intercept}
	}
	return nil
}

// solveRun is what the solve phase measured over all its slices. The
// slices share one schedule timeline: slice k covers
// [k*slice, (k+1)*slice).
type solveRun struct {
	docs    []solveDoc
	batches []ingestBatch
	outs    []outcome
	late    samples
	refits  int
	slice   time.Duration
	pick    *randx.Rand // draws the spec each solve sends
	ingests int         // ingest batches scheduled so far
}

func newSolveRun(in *solveInputs, slice time.Duration) *solveRun {
	return &solveRun{docs: in.docs, batches: in.batches, slice: slice, pick: randx.New(in.seed ^ 0x5c4ed)}
}

// high reports whether a solve was sent at the high rate, which every
// slice switches to after its first third.
func (run *solveRun) high(ev event) bool { return ev.due%run.slice >= run.slice/3 }

// runSolveSlice drives /v1/solve, /v1/solve-heterogeneous and
// /v1/ingest on one durable node for slice k of the phase.
func runSolveSlice(ctx context.Context, n *node, c *http.Client, in *solveInputs, ft *fitTracker, run *solveRun, k int) {
	from := time.Duration(k) * run.slice
	highFrom, to := from+run.slice/3, from+run.slice
	docIdx := func(int) int { return run.pick.Intn(len(in.docs)) }
	evs := schedule("solve", solveLowRate, from, highFrom, docIdx)
	evs = append(evs, schedule("solve", solveHighRate, highFrom, to, docIdx)...)
	ingests := schedule("ingest", in.m.ingestRate, from, to, func(i int) int { return (run.ingests + i) % len(in.batches) })
	run.ingests += len(ingests)
	evs = append(evs, ingests...)
	outs := openLoop(ctx, evs, from, 2, &run.late, func(base time.Time, o *outcome) {
		switch o.ev.kind {
		case "ingest":
			b := in.batches[o.ev.idx]
			ft.mu.Lock()
			ft.started++
			ft.mu.Unlock()
			o.sent = time.Since(base)
			o.status, o.body, o.err = post(c, n.ts.URL+"/v1/ingest", b.body, b.client)
			o.done = time.Since(base)
			if o.err == nil && o.status == 200 {
				o.err = ft.observe(o.body)
			}
			ft.mu.Lock()
			ft.done++
			ft.mu.Unlock()
		case "solve":
			d := in.docs[o.ev.idx]
			ft.mu.Lock()
			s0, d0, snap := ft.started, ft.done, ft.latest
			ft.mu.Unlock()
			o.sent = time.Since(base)
			o.status, o.body, o.err = post(c, n.ts.URL+d.path(), d.body, "")
			o.done = time.Since(base)
			ft.mu.Lock()
			o.checked = s0 == d0 && ft.started == s0
			ft.mu.Unlock()
			o.fit = &snap
		}
	})
	for _, o := range outs {
		if o.ev.kind == "ingest" && o.status == 200 {
			run.refits++
		}
	}
	run.outs = append(run.outs, outs...)
}

// solveInputs are the generated inputs of the solve phase and the
// workload mix that sends them.
type solveInputs struct {
	seed    uint64
	docs    []solveDoc
	batches []ingestBatch
	m       mix
}

// directReply is what the node must have answered for doc under fit:
// the same engine batch call on the same problems, encoded the way the
// server encodes replies.
func directReply(est *htuning.Estimator, d solveDoc, fit pricing.RateModel) ([]byte, error) {
	problems, batch, err := spec.Parse(d.body, spec.BuildOpts{Fitted: fit})
	if err != nil {
		return nil, err
	}
	var resp any
	if d.hetero {
		res, err := engine.SolveHeterogeneousBatch(est, problems, engine.Options{})
		if err != nil {
			return nil, err
		}
		hr := server.HeterogeneousResponse{Batch: batch, Results: make([]server.HeterogeneousResult, len(res))}
		for i, r := range res {
			hr.Results[i] = server.HeterogeneousResult{
				Prices: r.Prices, O1: r.O1, O2: r.O2,
				UtopiaO1: r.Utopia.O1, UtopiaO2: r.Utopia.O2,
				Closeness: r.Closeness, Spent: r.Spent,
			}
		}
		resp = hr
	} else {
		res, err := engine.SolveBatch(est, problems, engine.Options{})
		if err != nil {
			return nil, err
		}
		sr := server.SolveResponse{Batch: batch, Results: make([]server.SolveResult, len(res))}
		for i, r := range res {
			sr.Results[i] = server.SolveResult{Prices: r.Prices, Objective: r.Objective, Spent: r.Spent}
		}
		resp = sr
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkSolves compares every checkable solve reply — one sent and
// answered while no ingest was in flight, so exactly one fit was in
// force — with a direct engine solve under that fit. It returns how many
// replies it compared.
func checkSolves(run *solveRun) (int, error) {
	est := htuning.NewEstimator()
	checked := 0
	for _, o := range run.outs {
		if o.ev.kind != "solve" || o.status != 200 || !o.checked {
			continue
		}
		d := run.docs[o.ev.idx]
		want, err := directReply(est, d, o.fit.model())
		if err != nil {
			return checked, fmt.Errorf("direct solve of doc %d: %w", o.ev.idx, err)
		}
		if !bytes.Equal(want, o.body) {
			return checked, fmt.Errorf("solve reply for doc %d differs from the direct engine solve under fit %+v:\n got %s\nwant %s", o.ev.idx, *o.fit, o.body, want)
		}
		checked++
	}
	if checked == 0 {
		return 0, fmt.Errorf("no solve reply could be checked")
	}
	return checked, nil
}

// replaySolves re-issues the phase's requests in send order straight to
// the layers — spec.Parse, engine batch solves, inference.FitAggregates
// — on a fresh estimator under the same fit sequence, with spans around
// each call. It returns the estimator misses the fitted solves caused.
func replaySolves(run *solveRun, tr *tracer) (fittedMisses uint64, err error) {
	outs := append([]outcome(nil), run.outs...)
	sortBySent(outs)
	est := htuning.NewEstimator()
	aggs := make(map[int]inference.PriceAggregate)
	var fit pricing.RateModel
	for _, o := range outs {
		if o.status != 200 {
			continue
		}
		switch o.ev.kind {
		case "ingest":
			recs, err := trace.ReadJSONL(bytes.NewReader(run.batches[o.ev.idx].body))
			if err != nil {
				return 0, err
			}
			id := tr.begin("inference.fit", 0)
			for _, r := range recs {
				a := aggs[r.Price]
				a.Add(1, r.OnHold())
				aggs[r.Price] = a
			}
			res, ferr := inference.FitAggregates(aggs)
			tr.end(id)
			if ferr == nil {
				fit = pricing.Linear{K: res.Fit.Slope, B: res.Fit.Intercept}
			}
		case "solve":
			d := run.docs[o.ev.idx]
			model := fit
			if o.fit != nil && o.fit.total > 0 {
				model = o.fit.model()
			}
			before := est.CacheStats().Misses
			id := tr.begin("spec.parse", 0)
			problems, _, perr := spec.Parse(d.body, spec.BuildOpts{Fitted: model})
			tr.end(id)
			if perr != nil {
				return 0, perr
			}
			id = tr.begin("engine.solve", 0)
			if d.hetero {
				_, err = engine.SolveHeterogeneousBatch(est, problems, engine.Options{})
			} else {
				_, err = engine.SolveBatch(est, problems, engine.Options{})
			}
			tr.end(id)
			if err != nil {
				return 0, err
			}
			if d.fitted {
				fittedMisses += est.CacheStats().Misses - before
			}
		}
	}
	return fittedMisses, nil
}

func sortBySent(outs []outcome) {
	sort.SliceStable(outs, func(i, j int) bool { return outs[i].sent < outs[j].sent })
}
