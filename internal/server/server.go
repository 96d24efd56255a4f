// Package server is the long-running HTTP serving layer over the tuning
// engine: the htuned binary wires it to a listener, requesters POST
// H-Tuning specs and trace files at it continuously. One process holds
// one bounded-LRU Estimator shared by every request, one admission gate
// in front of the engine worker pool (overload is an immediate 503, not
// a backlog), and one atomically-swapped linearity fit that /v1/ingest
// re-tunes from observed traces while solves are in flight.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/solve               RA (Algorithm 2) over a spec document
//	POST   /v1/solve-heterogeneous HA (Algorithm 3) over a spec document
//	POST   /v1/simulate            deterministic Monte-Carlo scoring
//	POST   /v1/ingest              trace records (CSV or JSONL body) → MLE → fit
//	POST   /v1/campaigns           start closed-loop campaigns (campaign spec)
//	GET    /v1/campaigns           list campaigns
//	GET    /v1/campaigns/{id}      inspect one campaign's rounds and status
//	DELETE /v1/campaigns/{id}      cancel a campaign
//	GET    /v1/stats               cache/gate/fit/campaign counters
//	GET    /v1/metrics             latency histograms + cache/WAL/campaign gauges
//	GET    /v1/healthz             liveness probe
//
// Solve responses are byte-identical to the in-process engine batch API:
// the handlers call the same engine.SolveBatch / SolveHeterogeneousBatch
// / SimulateBatch the Go API exposes, against the same shared estimator.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/conc"
	"hputune/internal/engine"
	"hputune/internal/htuning"
	"hputune/internal/inference"
	"hputune/internal/market"
	"hputune/internal/pricing"
	"hputune/internal/spec"
	"hputune/internal/store"
	"hputune/internal/trace"
	"hputune/internal/traffic"
)

// maxBodyBytes bounds request bodies (specs and trace uploads).
const maxBodyBytes = 32 << 20

// maxTrials bounds per-instance trial counts in simulate requests.
const maxTrials = 10_000_000

// defaultTrials is used when a simulate request omits "trials".
const defaultTrials = 2000

// Per-problem resource ceilings, enforced before any admission or
// allocation so a small hostile request cannot OOM the process (an
// allocation is materialized per repetition) or hold a gate permit for
// hours (RA's greedy is O(budget); Monte Carlo is O(trials × reps)).
const (
	// maxProblemBudget bounds one instance's budget in payment units.
	maxProblemBudget = 16 << 20
	// maxProblemReps bounds one instance's Σ tasks × reps.
	maxProblemReps = 4 << 20
	// maxProblemWork bounds budget × groups, the step count of the RA/HA
	// greedy (each budget unit re-scans the group candidates), so one
	// admitted instance solves in seconds, not days.
	maxProblemWork = 1 << 28
	// maxSimulateWork bounds one simulate request's total sampled
	// latencies: trials × Σ reps across every instance.
	maxSimulateWork = 1_000_000_000
	// maxRequestReps bounds Σ tasks × reps across a whole simulate
	// request — the allocations are materialized per repetition before
	// admission, so this is the memory ceiling (~8 B per repetition),
	// independent of the trials-scaled work ceiling.
	maxRequestReps = 4 << 20
	// maxPriceLevels bounds the distinct price levels the ingest
	// aggregates track, keeping the fit state O(1) for the life of the
	// process; real deployments probe a handful of price points.
	maxPriceLevels = 4096
	// maxRequestProblems bounds instances per solve batch and
	// maxRequestBudget their summed budgets, so one admitted request
	// cannot hold its permit for an unbounded stretch of RA/HA work
	// (each solve is O(budget) greedy steps).
	maxRequestProblems = 4096
	maxRequestBudget   = 64 << 20
	// maxIngestInFlight is the ingest-specific admission bound: ingest
	// stays off the solve gate (re-tuning must not starve behind solve
	// traffic) but each upload holds ~3× its body in memory while
	// parsing, so concurrency needs its own small cap.
	maxIngestInFlight = 4
)

// checkProblemLimits enforces the resource ceilings on one instance and
// returns its total repetition count. Solver-level validation (positive
// shapes, affordable budget) still happens downstream; this only rejects
// sizes that would be unsafe to even materialize.
func checkProblemLimits(i int, p htuning.Problem) (reps int, err error) {
	if p.Budget > maxProblemBudget {
		return 0, fmt.Errorf("problem %d: budget %d above the %d-unit service limit", i, p.Budget, maxProblemBudget)
	}
	if p.Budget > 0 && p.Budget*len(p.Groups) > maxProblemWork {
		return 0, fmt.Errorf("problem %d: budget %d × %d groups above the %d-step service limit; lower the budget or merge groups", i, p.Budget, len(p.Groups), maxProblemWork)
	}
	for _, g := range p.Groups {
		if g.Tasks > maxProblemReps || g.Reps > maxProblemReps {
			return 0, fmt.Errorf("problem %d: %d tasks × %d reps above the %d-repetition service limit", i, g.Tasks, g.Reps, maxProblemReps)
		}
		if g.Tasks > 0 && g.Reps > 0 {
			reps += g.Tasks * g.Reps
		}
		if reps > maxProblemReps {
			return 0, fmt.Errorf("problem %d: more than %d total repetitions (service limit)", i, maxProblemReps)
		}
	}
	return reps, nil
}

// Config sizes one serving process. The zero value is usable.
type Config struct {
	// MaxInFlight bounds concurrently admitted solve/simulate requests;
	// excess requests get 503. <= 0 means GOMAXPROCS.
	MaxInFlight int
	// Workers is the engine worker-pool size each admitted batch may
	// use. <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries bounds the shared estimator's memo cache (total
	// entries across shards). <= 0 uses the estimator default
	// (32 shards × 2048 entries).
	CacheEntries int
	// MaxCampaigns bounds concurrently running closed-loop campaigns
	// (background work off the solve gate); excess starts get 503.
	// <= 0 means 64.
	MaxCampaigns int
	// Traffic tunes the hardening layer: admission weighting, rate
	// limiting, CPU shedding, access logging. The zero value keeps the
	// plain admission behavior.
	Traffic TrafficConfig
	// Node names this process within a cluster; the replication
	// endpoints report it (body and X-HT-Node header) so a follower can
	// verify which primary it is shipping from. Empty is fine for a
	// standalone process.
	Node string
}

// Server implements the HTTP API. Create with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	cfg        Config
	est        *htuning.Estimator
	gate       *traffic.Gate // two-class admission: bulk solves vs priority ingest/campaigns
	ingestGate *conc.Gate    // ingest memory cap (each upload holds ~3× its body while parsing)
	campaigns  *campaign.Manager
	mux        *http.ServeMux

	// Traffic layer: per-client rate limiting, process load sampling,
	// per-endpoint latency histograms, and the access log.
	limiter      *traffic.Limiter
	loadSampler  *traffic.LoadSampler
	hist         *traffic.HistogramSet
	clientHeader string
	accessLog    *log.Logger

	// st, when non-nil (Recover), journals ingest batches, published
	// fits and campaign lifecycle events to the durable store, and
	// switches shutdown from canceling campaigns to suspending them.
	st *store.Store

	// ingestMu serializes belief updates, fit publishes and their
	// journal appends; belief is the O(#prices) sufficient statistic of
	// everything ever ingested. fit is the published model, swapped in
	// atomically so solves pick it up without locking.
	ingestMu sync.Mutex
	belief   inference.Belief
	fit      atomic.Pointer[inference.Candidate]

	records   atomic.Uint64 // trace records ingested
	solves    atomic.Uint64 // problems solved (RA + HA)
	simulates atomic.Uint64 // allocations scored
	ingests   atomic.Uint64 // ingest requests applied
}

// New builds a server. The estimator cache is bounded per
// cfg.CacheEntries; an invalid bound is the only construction error.
func New(cfg Config) (*Server, error) {
	est := htuning.NewEstimator()
	if cfg.CacheEntries > 0 {
		var err error
		est, err = htuning.NewEstimatorCapacity(cfg.CacheEntries)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	tc := cfg.Traffic
	loadSampler := traffic.NewLoadSampler()
	s := &Server{
		cfg: cfg,
		est: est,
		gate: traffic.NewGate(traffic.GateConfig{
			Limit:     cfg.MaxInFlight,
			BulkShare: tc.BulkShare,
			ShedLoad:  tc.ShedCPU,
			Load:      loadSampler.Load,
		}),
		ingestGate: conc.NewGate(maxIngestInFlight),
		campaigns:  campaign.NewManager(est, cfg.MaxCampaigns),
		limiter: traffic.NewLimiter(traffic.LimiterConfig{
			Rate:       tc.RatePerClient,
			Burst:      tc.RateBurst,
			MaxClients: tc.MaxClients,
		}),
		loadSampler:  loadSampler,
		clientHeader: tc.ClientHeader,
		accessLog:    tc.AccessLog,
	}
	if s.clientHeader == "" {
		s.clientHeader = DefaultClientHeader
	}
	s.mux = http.NewServeMux()
	var patterns []string
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, h)
		patterns = append(patterns, pattern)
	}
	handle("POST /v1/solve", s.handleSolve)
	handle("POST /v1/solve-heterogeneous", s.handleSolveHeterogeneous)
	handle("POST /v1/simulate", s.handleSimulate)
	handle("POST /v1/ingest", s.handleIngest)
	handle("POST /v1/campaigns", s.handleCampaignStart)
	handle("GET /v1/campaigns", s.handleCampaignList)
	handle("GET /v1/campaigns/{id}", s.handleCampaignGet)
	handle("DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/metrics", s.handleMetrics)
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/replication/state", s.handleReplicationState)
	handle("GET /v1/replication/wal", s.handleReplicationWAL)
	handle("GET /v1/replication/aggregates", s.handleReplicationAggregates)
	handle("POST /v1/replication/fit", s.handleReplicationFit)
	s.hist = traffic.NewHistogramSet(patterns...)
	return s, nil
}

// Handler returns the root handler (also usable under httptest): the
// traffic middleware (request ids, rate limiting, envelope
// interception, histograms, access log) around the route mux, under the
// request-body byte cap.
func (s *Server) Handler() http.Handler {
	return http.MaxBytesHandler(s.middleware(), maxBodyBytes)
}

// Estimator exposes the shared estimator, e.g. to pre-warm it.
func (s *Server) Estimator() *htuning.Estimator { return s.est }

// Campaigns exposes the campaign manager, e.g. to start fleets from
// embedding code without going through HTTP.
func (s *Server) Campaigns() *campaign.Manager { return s.campaigns }

// Close stops every running campaign and waits for it to settle. The
// HTTP serving loop calls it on shutdown; embedders using Handler
// directly should call it themselves. Without a durable store the
// campaigns are canceled (their in-flight rounds publish nothing); with
// one (Recover) they are suspended instead — nothing terminal is
// journaled, so the next Recover resumes each from its last completed
// round. Closing the store itself stays the owner's job (the htuned
// binary compacts and closes it after the request drain).
func (s *Server) Close() {
	if s.st != nil {
		s.campaigns.Suspend()
		return
	}
	s.campaigns.Close()
}

// Store returns the durable store backing this server, or nil when it
// runs in-memory only.
func (s *Server) Store() *store.Store { return s.st }

// buildOpts resolves "fitted" models against the current ingest fit.
// The pointer is loaded once per request, so a concurrent re-tune never
// mixes two fits within one solve.
func (s *Server) buildOpts() spec.BuildOpts {
	if f := s.fit.Load(); f != nil {
		return spec.BuildOpts{Fitted: f.Info().Model()}
	}
	return spec.BuildOpts{}
}

// Fit returns the current trace-inferred linear model, if any.
func (s *Server) Fit() (pricing.Linear, bool) {
	if f := s.fit.Load(); f != nil {
		return f.Info().Model(), true
	}
	return pricing.Linear{}, false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // headers are out; nothing useful to do on failure
}

// overloadRetry is the Retry-After hint on gate-capacity 503s. The gate
// has no queue, so there is no backlog to derive a wait from; one
// second is the poll interval that drains a typical burst.
const overloadRetry = time.Second

// admitBulk gates the solve/simulate endpoints on the bulk class: at
// most BulkShare of the permit pool, shed first under CPU pressure. On
// false the 503 envelope has been written.
func (s *Server) admitBulk(w http.ResponseWriter) bool {
	if s.gate.TryAcquire(traffic.Bulk) {
		return true
	}
	writeOverloaded(w, overloadRetry,
		"server at solve capacity (%d of %d permits open to bulk work); retry shortly",
		s.gate.BulkLimit(), s.gate.Limit())
	return false
}

// admitPriority gates ingest and campaign starts on the priority class,
// which may use the whole permit pool — bulk traffic cannot starve it.
func (s *Server) admitPriority(w http.ResponseWriter, what string) bool {
	if s.gate.TryAcquire(traffic.Priority) {
		return true
	}
	writeOverloaded(w, overloadRetry,
		"server at %s capacity (%d permits in flight); retry shortly", what, s.gate.Limit())
	return false
}

// badRequestStatus maps a client-input error to its HTTP status: an
// over-cap body is 413 (shrink or split), everything else 400.
func badRequestStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeSpec reads and materializes a spec document request body via
// the shared spec parser (the CLI and the service must accept identical
// documents), enforcing the service resource ceilings.
func (s *Server) decodeSpec(r *http.Request) ([]htuning.Problem, bool, error) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, false, err
	}
	problems, batch, err := spec.Parse(raw, s.buildOpts())
	if err != nil {
		return nil, false, err
	}
	if len(problems) > maxRequestProblems {
		return nil, false, fmt.Errorf("batch of %d problems above the %d-instance service limit; split it", len(problems), maxRequestProblems)
	}
	totalBudget := 0
	for i, p := range problems {
		if _, err := checkProblemLimits(i, p); err != nil {
			return nil, false, err
		}
		if p.Budget > 0 {
			totalBudget += p.Budget
		}
		if totalBudget > maxRequestBudget {
			return nil, false, fmt.Errorf("batch budgets sum past the %d-unit service limit; split it", maxRequestBudget)
		}
	}
	return problems, batch, nil
}

// SolveResult is one tuned instance in a solve response.
type SolveResult struct {
	Prices    []int   `json:"prices"`
	Objective float64 `json:"objective"`
	Spent     int     `json:"spent"`
}

// SolveResponse is the /v1/solve reply; Results aligns with the request
// order (a single-instance spec yields one result and Batch=false).
type SolveResponse struct {
	Batch   bool          `json:"batch"`
	Results []SolveResult `json:"results"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Admission precedes the body read: a rejected request must cost a
	// permit check, not a 32 MB buffer and a spec materialization.
	if !s.admitBulk(w) {
		return
	}
	defer s.gate.Release(traffic.Bulk)
	problems, batch, err := s.decodeSpec(r)
	if err != nil {
		writeError(w, badRequestStatus(err), "%v", err)
		return
	}
	results, err := engine.SolveBatch(s.est, problems, engine.Options{Workers: s.cfg.Workers})
	if err != nil {
		// Engine errors report as 400 by design: every solver input —
		// shapes, budgets, rate models — derives verbatim from the
		// request body, so failures (including quadrature breakdowns)
		// are parameter-driven, not server state.
		writeError(w, http.StatusBadRequest, "solve: %v", err)
		return
	}
	s.solves.Add(uint64(len(problems)))
	resp := SolveResponse{Batch: batch, Results: make([]SolveResult, len(results))}
	for i, res := range results {
		resp.Results[i] = SolveResult{Prices: res.Prices, Objective: res.Objective, Spent: res.Spent}
	}
	writeJSON(w, http.StatusOK, resp)
}

// HeterogeneousResult is one tuned Scenario III instance.
type HeterogeneousResult struct {
	Prices    []int   `json:"prices"`
	O1        float64 `json:"o1"`
	O2        float64 `json:"o2"`
	UtopiaO1  float64 `json:"utopiaO1"`
	UtopiaO2  float64 `json:"utopiaO2"`
	Closeness float64 `json:"closeness"`
	Spent     int     `json:"spent"`
}

// HeterogeneousResponse is the /v1/solve-heterogeneous reply.
type HeterogeneousResponse struct {
	Batch   bool                  `json:"batch"`
	Results []HeterogeneousResult `json:"results"`
}

func (s *Server) handleSolveHeterogeneous(w http.ResponseWriter, r *http.Request) {
	if !s.admitBulk(w) {
		return
	}
	defer s.gate.Release(traffic.Bulk)
	problems, batch, err := s.decodeSpec(r)
	if err != nil {
		writeError(w, badRequestStatus(err), "%v", err)
		return
	}
	results, err := engine.SolveHeterogeneousBatch(s.est, problems, engine.Options{Workers: s.cfg.Workers})
	if err != nil {
		writeError(w, http.StatusBadRequest, "solve: %v", err)
		return
	}
	s.solves.Add(uint64(len(problems)))
	resp := HeterogeneousResponse{Batch: batch, Results: make([]HeterogeneousResult, len(results))}
	for i, res := range results {
		resp.Results[i] = HeterogeneousResult{
			Prices: res.Prices, O1: res.O1, O2: res.O2,
			UtopiaO1: res.Utopia.O1, UtopiaO2: res.Utopia.O2,
			Closeness: res.Closeness, Spent: res.Spent,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// SimulateProblem is one instance to score: a spec problem plus the
// uniform per-group prices of the allocation.
type SimulateProblem struct {
	Budget int          `json:"budget"`
	Groups []spec.Group `json:"groups"`
	Prices []int        `json:"prices"`
}

// SimulateRequest is the /v1/simulate body: a single instance (Budget,
// Groups, Prices) or a batch (Problems), plus sampling parameters.
type SimulateRequest struct {
	SimulateProblem
	Problems []SimulateProblem `json:"problems"`
	// Trials per instance (default 2000, max 10M).
	Trials int `json:"trials"`
	// Seed makes the run reproducible; equal requests give equal replies.
	Seed uint64 `json:"seed"`
	// Phase is "both" (default, wall clock) or "onhold".
	Phase string `json:"phase"`
}

// SimulateResponse is the /v1/simulate reply, latencies in request order.
type SimulateResponse struct {
	Batch     bool      `json:"batch"`
	Trials    int       `json:"trials"`
	Phase     string    `json:"phase"`
	Latencies []float64 `json:"latencies"`
}

func parsePhase(s string) (htuning.Phase, string, error) {
	switch s {
	case "", "both":
		return htuning.PhaseBoth, "both", nil
	case "onhold":
		return htuning.PhaseOnHold, "onhold", nil
	}
	return 0, "", fmt.Errorf("unknown phase %q (want \"both\" or \"onhold\")", s)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	// Admission precedes the body read and the per-repetition allocation
	// materialization, matching the solve handlers: a rejected request
	// costs a permit check, not a 32 MB parse.
	if !s.admitBulk(w) {
		return
	}
	defer s.gate.Release(traffic.Bulk)
	var req SimulateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, badRequestStatus(err), "parse request: %v", err)
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "parse request: trailing data after the request document")
		return
	}
	instances := req.Problems
	batch := true
	if len(instances) == 0 {
		instances = []SimulateProblem{req.SimulateProblem}
		batch = false
	} else if len(req.Groups) > 0 || req.Budget != 0 || len(req.SimulateProblem.Prices) > 0 {
		writeError(w, http.StatusBadRequest, "%v", spec.ErrMixedShapes)
		return
	}
	trials := req.Trials
	if trials == 0 {
		trials = defaultTrials
	}
	if trials < 1 || trials > maxTrials {
		writeError(w, http.StatusBadRequest, "trials %d outside [1, %d]", req.Trials, maxTrials)
		return
	}
	phase, phaseName, err := parsePhase(req.Phase)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := s.buildOpts()
	items := make([]engine.SimulateItem, len(instances))
	totalReps := 0
	for i, inst := range instances {
		if len(inst.Groups) == 0 {
			writeError(w, http.StatusBadRequest, "problem %d: no groups", i)
			return
		}
		sp := spec.Problem{Budget: inst.Budget, Groups: inst.Groups}
		p, err := sp.Build(opts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "problem %d: %v", i, err)
			return
		}
		// Size checks and model validation must precede the per-task
		// allocation below, which materializes Σ tasks × reps ints.
		reps, err := checkProblemLimits(i, p)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := p.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "problem %d: %v", i, err)
			return
		}
		totalReps += reps
		if totalReps > maxRequestReps {
			writeError(w, http.StatusBadRequest,
				"simulate request totals more than %d repetitions (service limit); split the batch", maxRequestReps)
			return
		}
		if totalReps > maxSimulateWork/trials {
			writeError(w, http.StatusBadRequest,
				"simulate request needs %d × %d+ samples, above the %d service limit; lower trials or split the batch",
				trials, totalReps, maxSimulateWork)
			return
		}
		alloc, err := htuning.NewUniformAllocation(p, inst.Prices)
		if err != nil {
			writeError(w, http.StatusBadRequest, "problem %d: %v", i, err)
			return
		}
		items[i] = engine.SimulateItem{Problem: p, Allocation: alloc}
	}
	lats, err := engine.SimulateBatch(items, phase, trials, req.Seed, engine.Options{Workers: s.cfg.Workers})
	if err != nil {
		writeError(w, http.StatusBadRequest, "simulate: %v", err)
		return
	}
	s.simulates.Add(uint64(len(items)))
	writeJSON(w, http.StatusOK, SimulateResponse{
		Batch: batch, Trials: trials, Phase: phaseName, Latencies: lats,
	})
}

// IngestResponse is the /v1/ingest reply.
type IngestResponse struct {
	// Records accepted in this request.
	Records int `json:"records"`
	// TotalRecords accepted over the server's lifetime.
	TotalRecords uint64 `json:"totalRecords"`
	// Fit is the re-tuned model, present once two price levels have
	// been observed.
	Fit *inference.FitInfo `json:"fit,omitempty"`
	// FitPending explains why no fit was produced (e.g. only one price
	// level observed so far); the previous fit, if any, stays live.
	FitPending string `json:"fitPending,omitempty"`
}

// handleIngest folds trace records into the belief, re-runs the MLE +
// linearity fit, and publishes the new model atomically. On a
// store-backed server each step is journaled before it is applied, so
// a batch or fit the WAL refused is answered 503 durability_lost and
// leaves the belief and fit as the WAL holds them. The body is CSV
// (Content-Type text/csv) or JSON Lines (anything else) in the trace
// package's wire formats. Ingest has its
// own small admission gate rather than sharing the solve gate: solve
// traffic must not starve re-tuning, but an upload holds a few times
// its body size while parsing, so unbounded concurrency would be an
// OOM vector.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Two permits: a priority-class slot on the main gate (never starved
	// by bulk traffic — the bulk cap keeps reserve permits free) and the
	// ingest-specific memory cap.
	if !s.admitPriority(w, "ingest") {
		return
	}
	defer s.gate.Release(traffic.Priority)
	if !s.ingestGate.TryAcquire() {
		writeOverloaded(w, overloadRetry,
			"server at ingest capacity (%d uploads parsing); retry shortly", s.ingestGate.Limit())
		return
	}
	defer s.ingestGate.Release()
	recs, err := readTraceBody(r)
	if err != nil {
		writeError(w, badRequestStatus(err), "%v", err)
		return
	}
	if len(recs) == 0 {
		writeError(w, http.StatusBadRequest, "no trace records in body")
		return
	}
	// Validate and fold the whole batch into local deltas before touching
	// shared state: a rejected request must not half-commit its records
	// (aggregates have no subtract, so a partial merge would double-count
	// on retry). Folding straight into the O(#prices) sufficient
	// statistic avoids buffering a second copy of every duration.
	var batch inference.Belief
	for _, rec := range recs {
		if err := batch.Observe(rec); err != nil {
			writeError(w, http.StatusBadRequest, "record %q rep %d: %v", rec.TaskID, rec.Rep, err)
			return
		}
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	levels := len(s.belief)
	for price := range batch {
		if _, ok := s.belief[price]; !ok {
			levels++
		}
	}
	if levels > maxPriceLevels {
		writeError(w, http.StatusBadRequest,
			"ingest would track %d distinct price levels, above the %d service limit", levels, maxPriceLevels)
		return
	}
	if err := s.belief.CheckMerge(batch); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Journal while still holding ingestMu, so WAL order matches commit
	// order, and before applying, so a refused append changes nothing.
	if s.st != nil {
		if err := s.st.AppendIngest(batch, len(recs)); err != nil {
			writeDurabilityLost(w, "journal ingest batch: %v", err)
			return
		}
	}
	_ = s.belief.Merge(batch) // CheckMerge passed under the same ingestMu
	resp := IngestResponse{Records: len(recs), TotalRecords: s.records.Add(uint64(len(recs)))}
	s.ingests.Add(1)
	// A pending fit (none yet, or one the guard refused) keeps the
	// previous fit live; the reply says why.
	cand, pending := s.belief.Fit()
	resp.FitPending = pending
	if pending == "" {
		if s.st != nil {
			if err := s.st.AppendFit(cand); err != nil {
				// The batch is durable and applied; the fit is neither.
				writeDurabilityLost(w, "batch journaled, fit not: %v", err)
				return
			}
		}
		s.fit.Store(&cand)
		info := cand.Info()
		resp.Fit = &info
	}
	writeJSON(w, http.StatusOK, resp)
}

// readTraceBody decodes the ingest body per Content-Type. The media
// type is parsed so parameters ("text/csv; charset=utf-8") don't
// misroute a CSV body to the JSONL reader.
func readTraceBody(r *http.Request) ([]market.RepRecord, error) {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err == nil && mt == "text/csv" {
		return trace.ReadCSV(r.Body)
	}
	return trace.ReadJSONL(r.Body)
}

// StatsResponse is the /v1/stats reply.
type StatsResponse struct {
	Cache     htuning.CacheStats `json:"cache"`
	Serve     ServeStats         `json:"serve"`
	Campaigns campaign.Stats     `json:"campaigns"`
	Fit       *inference.FitInfo `json:"fit"`
}

// ServeStats are the request-level counters.
type ServeStats struct {
	Solves          uint64 `json:"solves"`
	Simulates       uint64 `json:"simulates"`
	Ingests         uint64 `json:"ingests"`
	IngestedRecords uint64 `json:"ingestedRecords"`
	Rejected        uint64 `json:"rejected"`
	IngestRejected  uint64 `json:"ingestRejected"`
	InFlight        int    `json:"inFlight"`
	MaxInFlight     int    `json:"maxInFlight"`
	// Workers is the engine pool width per admitted batch, so
	// MaxInFlight × Workers bounds total solver concurrency.
	Workers int `json:"workers"`
}

// serveStats builds the request-level counter block shared by /v1/stats
// and /v1/metrics.
func (s *Server) serveStats() ServeStats {
	return ServeStats{
		Solves:          s.solves.Load(),
		Simulates:       s.simulates.Load(),
		Ingests:         s.ingests.Load(),
		IngestedRecords: s.records.Load(),
		Rejected:        s.gate.Rejected(),
		IngestRejected:  s.ingestGate.Rejected(),
		InFlight:        s.gate.InFlight(),
		MaxInFlight:     s.gate.Limit(),
		Workers:         engine.Options{Workers: s.cfg.Workers}.ResolvedWorkers(),
	}
}

// handleHealthz answers 200 while the node can journal. Once the WAL
// has sticky-failed, the campaign writes the node still acknowledges
// from memory are lost on restart, so it answers 503 durability_lost:
// the cluster watchdog strikes the node and promotes its replica. Reads
// keep serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.st != nil {
		if err := s.st.Err(); err != nil {
			writeDurabilityLost(w, "WAL failed: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Cache:     s.est.CacheStats(),
		Campaigns: s.campaigns.Stats(),
		Serve:     s.serveStats(),
	}
	if f := s.fit.Load(); f != nil {
		info := f.Info()
		resp.Fit = &info
	}
	writeJSON(w, http.StatusOK, resp)
}
