// Package campaign closes the paper's loop at system scale: tune → post →
// observe → re-tune, per job, until the job's budget runs out, the fitted
// model stops moving, or a round deadline passes. It is the orchestrator
// the rest of the repository plugs into — the solvers of package htuning
// pick each round's prices, an Executor (the market simulator by default,
// any real backend behind the same interface) runs the round, and the
// observed completion traces are folded through inference.FitAggregates
// into a re-fitted price→rate model that the next round solves against.
//
// One Campaign is one closed loop. Fleets of campaigns run concurrently
// over the engine worker pool (RunFleet) or under a Manager (the htuned
// service's /v1/campaigns endpoints). Every campaign is deterministic:
// its per-round allocations are a pure function of (Config, Seed) —
// independent of fleet concurrency, of the shared estimator's cache
// state, and of whether the CLI or the HTTP service drives it — because
// round seeds derive only from the campaign seed and the solvers and
// simulator are themselves deterministic.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"

	"hputune/internal/htuning"
	"hputune/internal/inference"
	"hputune/internal/market"
	"hputune/internal/pricing"
	"hputune/internal/randx"
)

// Group is one set of identical tasks in a campaign: the workload shape
// the tuner sees, plus the marketplace's actual behaviour (unknown to
// the tuner, which only ever reads completed-trace timings).
type Group struct {
	// Name labels the group in task IDs and output.
	Name string
	// Tasks and Reps define the group's workload per round.
	Tasks int
	Reps  int
	// Class is the true marketplace behaviour of the group's tasks. The
	// tuner never reads Class.Accept — it prices rounds with the prior
	// until observed traces produce a fit. Class.ProcRate is visible to
	// the tuner (processing rates are measured offline in the paper).
	Class *market.TaskClass
}

// Config describes one campaign. RoundBudget, Groups and Prior are
// required; zero values elsewhere take the documented defaults.
type Config struct {
	// Name labels the campaign in results and listings.
	Name string
	// Groups is the per-round workload.
	Groups []Group
	// Prior is the initial belief about the price→rate curve, shared by
	// all groups until ingested traces replace it with a fit.
	Prior pricing.RateModel
	// RoundBudget is the payment budget each round may spend. It must
	// afford at least one unit per repetition of the round's workload.
	RoundBudget int
	// Budget bounds the whole campaign's spend; <= 0 means
	// MaxRounds × RoundBudget. The campaign stops with
	// StatusBudgetExhausted once the remainder cannot fund a round.
	Budget int
	// MaxRounds is the round deadline; <= 0 means 16.
	MaxRounds int
	// Epsilon is the convergence threshold on the relative change of the
	// published fit between consecutive rounds (see Converged in Result).
	// 0 demands an exactly unchanged belief.
	Epsilon float64
	// Seed drives every round's market randomness. Campaign results are
	// a pure function of (Config, Seed).
	Seed uint64
	// Market configures the executor's marketplace (mode, arrival rate,
	// abandonment). The zero value is the paper's independent-acceptance
	// model.
	Market MarketOptions
	// Drift perturbs the true market round over round — the zero value
	// is a stationary market.
	Drift Drift
	// HistoryCap bounds retained per-round snapshots (oldest dropped
	// first, drops counted); <= 0 means 64.
	HistoryCap int
	// Executor overrides the backend the allocations are executed
	// against; nil uses the market simulator over Groups, Market and
	// Drift (or the crowd-query executor when Query is set). Real
	// (non-simulated) backends implement this interface.
	Executor Executor
	// Query switches the campaign to the crowd-DB query executor: every
	// round runs one full top-k or group-by query priced by the round's
	// allocation. Groups must be empty — they are derived from the query
	// plan's difficulty buckets. Mutually exclusive with Executor.
	Query *CrowdQuery
	// Deadline imposes a per-round latency SLO checked before each solve
	// by the [29] comparator; inadmissible rounds terminate the campaign
	// as StatusSLOInfeasible.
	Deadline *DeadlineSLO
	// Retainer routes a slice of every round's repetitions through a
	// pre-paid standby pool, removing their on-hold phase and charging
	// the pool fee against the budget.
	Retainer *RetainerPool
}

// Defaults for Config zero values.
const (
	// DefaultMaxRounds is the round deadline when Config.MaxRounds <= 0.
	DefaultMaxRounds = 16
	// DefaultHistoryCap is the snapshot bound when Config.HistoryCap <= 0.
	DefaultHistoryCap = 64
)

// MarketOptions configures the default market executor.
type MarketOptions struct {
	// WorkerChoice switches the simulator to Poisson worker arrivals
	// choosing among open repetitions (competition between tasks).
	WorkerChoice bool
	// ArrivalRate is the worker arrival rate (required > 0 when
	// WorkerChoice is set).
	ArrivalRate float64
	// AbandonProb and AbandonRate inject workers who return accepted
	// repetitions unfinished (see market.Config).
	AbandonProb float64
	AbandonRate float64
	// MaxTime aborts a round whose simulated clock exceeds this horizon;
	// 0 means none.
	MaxTime float64
}

// config builds the market.Config of one round (before drift).
func (o MarketOptions) config() market.Config {
	cfg := market.Config{
		AbandonProb: o.AbandonProb,
		AbandonRate: o.AbandonRate,
		MaxTime:     o.MaxTime,
	}
	if o.WorkerChoice {
		cfg.Mode = market.ModeWorkerChoice
		cfg.ArrivalRate = o.ArrivalRate
	}
	return cfg
}

// withDefaults returns cfg with documented defaults applied.
func (cfg Config) withDefaults() Config {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.HistoryCap <= 0 {
		cfg.HistoryCap = DefaultHistoryCap
	}
	if cfg.Budget <= 0 {
		cfg.Budget = cfg.MaxRounds * cfg.RoundBudget
	}
	return cfg
}

// minRoundCost is one unit per repetition of the round workload.
func (cfg Config) minRoundCost() int {
	total := 0
	for _, g := range cfg.Groups {
		total += g.Tasks * g.Reps
	}
	return total
}

// Validate reports whether the campaign (after defaults) is runnable.
func (cfg Config) Validate() error {
	if len(cfg.Groups) == 0 {
		return fmt.Errorf("campaign: no groups")
	}
	for i, g := range cfg.Groups {
		if g.Tasks < 1 || g.Reps < 1 {
			return fmt.Errorf("campaign: group %d (%s) has %d tasks × %d reps, need >= 1 each", i, g.Name, g.Tasks, g.Reps)
		}
		if err := g.Class.Validate(); err != nil {
			return fmt.Errorf("campaign: group %d (%s): %w", i, g.Name, err)
		}
	}
	if cfg.Prior == nil {
		return fmt.Errorf("campaign: nil prior rate model")
	}
	if min := cfg.minRoundCost(); cfg.RoundBudget < min {
		return fmt.Errorf("%w: round budget %d below the %d repetitions of one round", htuning.ErrBudgetTooSmall, cfg.RoundBudget, min)
	}
	if cfg.Budget < cfg.RoundBudget {
		return fmt.Errorf("campaign: total budget %d below the %d-unit round budget", cfg.Budget, cfg.RoundBudget)
	}
	if cfg.Epsilon < 0 || math.IsNaN(cfg.Epsilon) {
		return fmt.Errorf("campaign: epsilon %v must be >= 0", cfg.Epsilon)
	}
	if cfg.Market.WorkerChoice && !(cfg.Market.ArrivalRate > 0) {
		return fmt.Errorf("campaign: worker-choice market needs a positive arrival rate, got %v", cfg.Market.ArrivalRate)
	}
	if err := cfg.Drift.validate(cfg.Market); err != nil {
		return err
	}
	if cfg.Deadline != nil {
		if err := cfg.Deadline.validate(); err != nil {
			return err
		}
	}
	if cfg.Retainer != nil {
		if err := cfg.Retainer.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Status is a campaign's lifecycle state. Terminal statuses explain why
// the loop stopped.
type Status string

// Campaign statuses.
const (
	// StatusPending is registered but not yet running a round.
	StatusPending Status = "pending"
	// StatusRunning is mid-loop.
	StatusRunning Status = "running"
	// StatusConverged stopped because the loop reached a fixed point:
	// the round's allocation matched the previous round's and the
	// published belief moved by at most Epsilon.
	StatusConverged Status = "converged"
	// StatusBudgetExhausted stopped because the remaining budget cannot
	// fund another round.
	StatusBudgetExhausted Status = "budget-exhausted"
	// StatusMaxRounds stopped at the round deadline.
	StatusMaxRounds Status = "max-rounds"
	// StatusCanceled was canceled; the round in flight at cancel time
	// published nothing.
	StatusCanceled Status = "canceled"
	// StatusFailed hit a solver or executor error (see Result.Reason).
	StatusFailed Status = "failed"
	// StatusSLOInfeasible stopped because the deadline SLO's admission
	// check found no price up to its scan ceiling meeting the latency
	// SLO under the current belief.
	StatusSLOInfeasible Status = "slo-infeasible"
	// StatusSuspended was stopped by a shutdown that intends to resume
	// it (see ErrSuspended): not terminal — a recovery restores the
	// campaign from its last completed round and continues.
	StatusSuspended Status = "suspended"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusPending, StatusRunning, StatusSuspended:
		return false
	}
	return true
}

// ErrSuspended, passed as the cancel cause of the context driving Run,
// parks the campaign as StatusSuspended instead of settling it as
// canceled: nothing is journaled, the durable state keeps saying
// "running", and the next recovery resumes the loop from its last
// completed round. Any other cancellation cause is a real cancel.
var ErrSuspended = errors.New("campaign: suspended for shutdown")

// RoundSnapshot records one completed round of the loop.
type RoundSnapshot struct {
	Round int `json:"round"`
	// Algorithm is the solver that priced the round ("ra" or "ha").
	Algorithm string `json:"algorithm"`
	// Model names the believed rate model the round was priced with.
	Model string `json:"model"`
	// Budget is the round's allotted budget; Spent what the allocation
	// actually cost.
	Budget int `json:"budget"`
	Spent  int `json:"spent"`
	// Prices are the tuned per-group repetition prices.
	Prices []int `json:"prices"`
	// Records is how many completed repetitions the round observed;
	// Makespan the round's realized completion time.
	Records  int     `json:"records"`
	Makespan float64 `json:"makespan"`
	// Fit is the model published after folding the round's observations,
	// if one was; FitPending explains why none was (the previous belief
	// stays live). FitDelta is the relative parameter change against the
	// previously published fit (0 for the first fit).
	Fit        *inference.FitInfo `json:"fit,omitempty"`
	FitPending string             `json:"fitPending,omitempty"`
	FitDelta   float64            `json:"fitDelta"`
	// Query is the round's crowd-query outcome (crowd-query campaigns).
	Query *QueryInfo `json:"query,omitempty"`
	// SLO is the round's deadline-SLO accounting (deadline campaigns).
	SLO *SLOInfo `json:"slo,omitempty"`
	// Retainer is the round's pool accounting (retainer campaigns).
	Retainer *RetainerInfo `json:"retainer,omitempty"`
}

// Result is a campaign's inspectable state: live while running, final
// once Status is terminal.
type Result struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	// Reason explains a terminal status in one line.
	Reason string `json:"reason,omitempty"`
	// RoundsRun counts completed rounds; Rounds holds the retained
	// snapshots (the most recent HistoryCap; DroppedRounds were evicted).
	RoundsRun     int             `json:"roundsRun"`
	DroppedRounds int             `json:"droppedRounds"`
	Rounds        []RoundSnapshot `json:"rounds"`
	// Spent and Remaining account the campaign budget.
	Spent     int `json:"spent"`
	Remaining int `json:"remaining"`
	// Converged reports whether the loop reached its fixed point.
	Converged bool `json:"converged"`
	// Fit is the currently published belief, if any.
	Fit *inference.FitInfo `json:"fit,omitempty"`
	// TotalMakespan sums the realized round makespans.
	TotalMakespan float64 `json:"totalMakespan"`
}

// Checkpoint is a campaign's full resumable state as of a completed
// round (or its terminal settlement): everything Run needs beyond the
// immutable Config to continue the loop bit-identically — the published
// belief, the cumulative per-price aggregates behind it, the budget
// accounting and the round counters. The retained round-snapshot ring
// rides separately (the durable store keeps it per campaign), so one
// checkpoint stays O(#price levels) no matter how long the campaign has
// run. All float fields are finite, so the checkpoint round-trips
// through JSON without losing a bit.
type Checkpoint struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	Reason string `json:"reason,omitempty"`
	// RoundsRun counts completed rounds; a resumed Run continues at
	// exactly this round index.
	RoundsRun int `json:"roundsRun"`
	Dropped   int `json:"dropped,omitempty"`
	// HistoryCap is the round-snapshot retention bound (after defaults),
	// recorded so replay can maintain the ring without the Config.
	HistoryCap    int     `json:"historyCap"`
	Spent         int     `json:"spent"`
	Remaining     int     `json:"remaining"`
	TotalMakespan float64 `json:"totalMakespan"`
	// Aggs is the cumulative per-price sufficient statistic every future
	// re-fit folds into; restoring it bit-exactly is what makes a resumed
	// campaign's fits identical to an uninterrupted run's.
	Aggs map[int]inference.PriceAggregate `json:"aggs,omitempty"`
	// Fit is the currently published belief, if any (the model is
	// rebuilt from it as Floored{Linear{Slope, Intercept}}, exactly how
	// fold constructed it).
	Fit *inference.FitInfo `json:"fit,omitempty"`
}

// Journal receives a campaign's durable-state events — the hook the
// serving layer's WAL-backed store plugs in; campaigns run without one
// by default. Round fires after every completed round with the
// campaign's full resumable state; its checkpoint status is terminal
// when the round itself decided the loop (convergence), so a single
// journal record always carries the whole decision and a crash can
// never separate a round from its verdict. Finished fires on terminal
// statuses reached between rounds (budget exhaustion, the round
// deadline, cancellation, failure). Implementations must be safe for
// concurrent use by many campaigns and must not call back into the
// campaign; they cannot veto progress — a journal that fails durably
// degrades persistence, never the live loop.
type Journal interface {
	Round(id string, snap RoundSnapshot, chk Checkpoint)
	Finished(id string, chk Checkpoint)
}

// ManagerJournal extends Journal with the manager-level event.
type ManagerJournal interface {
	Journal
	// Evicted fires just before a finished campaign leaves the
	// manager's bounded retention, with its final state and retained
	// round history — the export hook that keeps eviction from being
	// the destruction of history's only copy.
	Evicted(id string, chk Checkpoint, rounds []RoundSnapshot)
}

// Campaign is one closed loop in flight. Create with New, drive with
// Run; Snapshot is safe to call concurrently with Run (the Manager's
// inspection path).
type Campaign struct {
	cfg  Config
	est  *htuning.Estimator
	exec Executor

	// journal, when set (SetJournal, before Run), receives round and
	// terminal events under the manager-assigned id jid.
	journal Journal
	jid     string

	mu            sync.Mutex
	status        Status
	reason        string
	rounds        []RoundSnapshot // ring of the last HistoryCap rounds
	dropped       int
	roundsRun     int
	spent         int
	remaining     int
	converged     bool
	fit           *inference.FitInfo // the published fit; nil while the prior prices
	totalMakespan float64

	// belief holds the O(#price levels) sufficient statistic of every
	// observation ever folded.
	belief inference.Belief

	// probGroups and probTypes back roundProblem's per-round H-Tuning
	// instance. Rounds run sequentially on the Run goroutine and the
	// solvers retain nothing from the Problem after returning, so one
	// scratch per campaign serves every round.
	probGroups []htuning.Group
	probTypes  []htuning.TaskType
}

// New validates cfg (after applying defaults) and prepares a campaign.
// est may be shared with other campaigns and solves; nil gets a fresh
// one. Sharing never changes results — the estimator memoizes pure
// integrals — it only saves recomputation.
func New(est *htuning.Estimator, cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	var crowdExec *crowdExecutor
	if cfg.Query != nil {
		if cfg.Executor != nil {
			return nil, fmt.Errorf("campaign: Query and Executor are mutually exclusive")
		}
		if len(cfg.Groups) != 0 {
			return nil, fmt.Errorf("campaign: crowd-query campaigns derive groups from the query plan; Groups must be empty")
		}
		var err error
		crowdExec, cfg.Groups, err = newCrowdExecutor(cfg)
		if err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if est == nil {
		est = htuning.NewEstimator()
	}
	exec := cfg.Executor
	if exec == nil {
		if crowdExec != nil {
			exec = crowdExec
		} else {
			exec = newMarketExecutor(cfg)
			if cfg.Retainer != nil {
				exec = &retainerExecutor{inner: exec, pool: *cfg.Retainer}
			}
		}
	}
	return &Campaign{
		cfg:       cfg,
		est:       est,
		exec:      exec,
		status:    StatusPending,
		remaining: cfg.Budget,
	}, nil
}

// Snapshot returns a consistent copy of the campaign's current state.
func (c *Campaign) Snapshot() Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := Result{
		Name:          c.cfg.Name,
		Status:        c.status,
		Reason:        c.reason,
		RoundsRun:     c.roundsRun,
		DroppedRounds: c.dropped,
		Rounds:        append([]RoundSnapshot(nil), c.rounds...),
		Spent:         c.spent,
		Remaining:     c.remaining,
		Converged:     c.converged,
		TotalMakespan: c.totalMakespan,
	}
	if c.fit != nil {
		info := *c.fit
		res.Fit = &info
	}
	return res
}

// RoundsRun returns the completed-round count (for fleet statistics).
func (c *Campaign) RoundsRun() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundsRun
}

// Brief returns the campaign's scalar state without copying the round
// history — the cheap path for listings and counters.
func (c *Campaign) Brief() (name string, status Status, roundsRun, spent int, converged bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Name, c.status, c.roundsRun, c.spent, c.converged
}

// SetJournal binds the campaign's lifecycle events to j under id. The
// manager sets it for campaigns it starts or resumes; embedders driving
// Run directly set it themselves. Must be set before Run and never
// while Run is in flight.
func (c *Campaign) SetJournal(j Journal, id string) {
	c.journal = j
	c.jid = id
}

// Checkpoint returns the campaign's current resumable state.
func (c *Campaign) Checkpoint() Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	chk := Checkpoint{
		Name:          c.cfg.Name,
		Status:        c.status,
		Reason:        c.reason,
		RoundsRun:     c.roundsRun,
		Dropped:       c.dropped,
		HistoryCap:    c.cfg.HistoryCap,
		Spent:         c.spent,
		Remaining:     c.remaining,
		TotalMakespan: c.totalMakespan,
		Aggs:          maps.Clone(c.belief),
	}
	if c.fit != nil {
		info := *c.fit
		chk.Fit = &info
	}
	return chk
}

// Restore loads a recovered checkpoint and retained round history into
// a freshly built campaign — the recovery path. The campaign must be
// pending and unrun. A non-terminal checkpoint (pending, running or
// suspended at crash or shutdown time) leaves the campaign pending; Run
// then continues from the first round the checkpoint had not completed
// and — because round seeds derive only from Config.Seed, and the
// solvers, the simulator and the fit are deterministic — produces
// exactly the rounds an uninterrupted run would have. A terminal
// checkpoint makes the campaign inspectable without running it again.
func (c *Campaign) Restore(chk Checkpoint, rounds []RoundSnapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status != StatusPending || c.roundsRun != 0 {
		return fmt.Errorf("campaign: Restore on a %s campaign with %d rounds run (restore needs a fresh campaign)", c.status, c.roundsRun)
	}
	status := chk.Status
	switch status {
	case "", StatusPending, StatusRunning, StatusSuspended:
		// Non-terminal at the time the checkpoint was cut: resumable.
		status = StatusPending
	case StatusConverged, StatusBudgetExhausted, StatusMaxRounds, StatusCanceled, StatusFailed, StatusSLOInfeasible:
	default:
		return fmt.Errorf("campaign: checkpoint has unknown status %q", chk.Status)
	}
	if status == StatusPending && chk.RoundsRun == 0 && chk.Spent == 0 && chk.Remaining == 0 &&
		len(rounds) == 0 && len(chk.Aggs) == 0 && chk.Fit == nil {
		// The zero checkpoint: the campaign was registered but never
		// completed a round (a crash between fleet start and the first
		// round record). Nothing to restore — Run starts from scratch.
		return nil
	}
	if chk.Name != "" && chk.Name != c.cfg.Name {
		return fmt.Errorf("campaign: checkpoint is for %q, config is %q (mismatched recovery pairing)", chk.Name, c.cfg.Name)
	}
	if chk.RoundsRun < len(rounds) {
		return fmt.Errorf("campaign: checkpoint has %d rounds run but %d retained snapshots", chk.RoundsRun, len(rounds))
	}
	if chk.RoundsRun > c.cfg.MaxRounds {
		return fmt.Errorf("campaign: checkpoint has %d rounds run past the %d-round deadline", chk.RoundsRun, c.cfg.MaxRounds)
	}
	if chk.Spent < 0 || chk.Spent+chk.Remaining != c.cfg.Budget {
		return fmt.Errorf("campaign: checkpoint accounting (spent %d + remaining %d) does not match the configured budget %d",
			chk.Spent, chk.Remaining, c.cfg.Budget)
	}
	if err := c.belief.Merge(chk.Aggs); err != nil {
		return fmt.Errorf("campaign: checkpoint aggregates: %w", err)
	}
	c.status = status
	c.reason = chk.Reason
	c.converged = status == StatusConverged
	c.roundsRun = chk.RoundsRun
	c.dropped = chk.Dropped
	c.spent = chk.Spent
	c.remaining = chk.Remaining
	c.totalMakespan = chk.TotalMakespan
	c.rounds = append(c.rounds[:0], rounds...)
	if chk.Fit != nil {
		info := *chk.Fit
		c.fit = &info
	}
	return nil
}

// model returns the model the next round prices with: the published
// fit behind the positive floor when one exists, the prior otherwise.
func (c *Campaign) model() pricing.RateModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fit != nil {
		return pricing.Floored{Base: c.fit.Model()}
	}
	return c.cfg.Prior
}

// finish records a terminal status and returns the final result.
func (c *Campaign) finish(status Status, reason string) Result {
	c.mu.Lock()
	c.status = status
	c.reason = reason
	c.converged = status == StatusConverged
	c.mu.Unlock()
	return c.Snapshot()
}

// finishJournal is finish plus the terminal journal record — the path
// for terminal statuses reached between rounds (budget exhaustion, the
// round deadline, cancellation, failure). Convergence instead rides the
// deciding round's own journal record, so a crash can never land
// between a round and its verdict.
func (c *Campaign) finishJournal(status Status, reason string) Result {
	res := c.finish(status, reason)
	if c.journal != nil {
		c.journal.Finished(c.jid, c.Checkpoint())
	}
	return res
}

// journalRound emits one completed round and the campaign's resulting
// resumable state (terminal when the round decided convergence).
func (c *Campaign) journalRound(snap RoundSnapshot) {
	if c.journal != nil {
		c.journal.Round(c.jid, snap, c.Checkpoint())
	}
}

// stop settles a cancellation observed at round: a suspend cause parks
// the campaign non-terminally without journaling anything — the durable
// state keeps saying "running as of the last completed round", which is
// exactly what a later recovery resumes — while any other cause is a
// real, journaled, terminal cancel.
func (c *Campaign) stop(ctx context.Context, reason string) (Result, error) {
	if errors.Is(context.Cause(ctx), ErrSuspended) {
		c.mu.Lock()
		c.status = StatusSuspended
		c.reason = fmt.Sprintf("suspended for shutdown; resumable from round %d", c.roundsRun)
		c.mu.Unlock()
		return c.Snapshot(), nil
	}
	return c.finishJournal(StatusCanceled, reason), nil
}

// solverFor picks the paper's solver for the round shape: HA when
// processing rates differ across groups (Scenario III), RA otherwise
// (Scenario I collapses to RA's greedy on a single group).
func solverFor(groups []Group) string {
	proc := groups[0].Class.ProcRate
	for _, g := range groups[1:] {
		if g.Class.ProcRate != proc {
			return "ha"
		}
	}
	return "ra"
}

// roundProblem builds the H-Tuning instance the round solves: the
// campaign workload priced under the current belief. Only ProcRate is
// taken from the true classes — acceptance behaviour enters solely
// through belief. The instance lives in the campaign's scratch buffers,
// valid until the next round builds its own (solvers retain nothing).
func (c *Campaign) roundProblem(belief pricing.RateModel, budget int) htuning.Problem {
	if cap(c.probGroups) < len(c.cfg.Groups) {
		c.probGroups = make([]htuning.Group, 0, len(c.cfg.Groups))
		c.probTypes = make([]htuning.TaskType, len(c.cfg.Groups))
	}
	c.probGroups = c.probGroups[:0]
	for i, g := range c.cfg.Groups {
		c.probTypes[i] = htuning.TaskType{
			Name:     g.Name,
			Accept:   belief,
			ProcRate: g.Class.ProcRate,
		}
		c.probGroups = append(c.probGroups, htuning.Group{
			Type:  &c.probTypes[i],
			Tasks: g.Tasks,
			Reps:  g.Reps,
		})
	}
	return htuning.Problem{Budget: budget, Groups: c.probGroups}
}

// fitDelta returns the relative parameter change between fits:
// (|Δslope| + |Δintercept|) scaled by the old parameter magnitude.
func fitDelta(old, new inference.FitInfo) float64 {
	num := math.Abs(new.Slope-old.Slope) + math.Abs(new.Intercept-old.Intercept)
	den := math.Abs(old.Slope) + math.Abs(old.Intercept)
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// fold merges the round's observed on-hold durations into the cumulative
// aggregates and attempts to publish a re-fitted model. It returns the
// publish outcome for the round snapshot; first reports that the publish
// had no predecessor (its delta is undefined). Caller holds no locks.
func (c *Campaign) fold(records []market.RepRecord) (published *inference.FitInfo, pending string, delta float64, first bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range records {
		// The simulator only emits records the filter keeps; a custom
		// Executor might not, and its bad records are dropped.
		_ = c.belief.Observe(rec)
	}
	cand, pending := c.belief.Fit()
	if pending != "" {
		// No usable fit yet, or one the guard refused: the previous
		// belief stays live.
		return nil, pending, 0, false
	}
	info := cand.Info()
	first = c.fit == nil
	if !first {
		delta = fitDelta(*c.fit, info)
	}
	c.fit = &info
	out := info
	return &out, "", delta, first
}

// record appends a round snapshot to the bounded history and updates
// the budget accounting.
func (c *Campaign) record(snap RoundSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roundsRun++
	c.spent += snap.Spent
	c.remaining -= snap.Spent
	c.totalMakespan += snap.Makespan
	c.rounds = append(c.rounds, snap)
	if over := len(c.rounds) - c.cfg.HistoryCap; over > 0 {
		c.rounds = append(c.rounds[:0], c.rounds[over:]...)
		c.dropped += over
	}
}

// Run drives the loop to a terminal status. It is a pure function of
// (Config, Seed): per-round market seeds are drawn from one stream
// derived from the campaign seed, so results are identical no matter
// how many campaigns run beside this one. The returned error is non-nil
// only for StatusFailed.
//
// Cancellation (ctx) is honoured between steps: a cancel observed after
// a round executed but before its observations were folded leaves the
// published belief exactly as it was — a canceled round never publishes.
// A cancel whose cause is ErrSuspended parks the campaign as suspended
// (resumable) instead of canceling it.
//
// On a campaign restored from a non-terminal Checkpoint, Run continues
// at the first round the checkpoint had not completed: it re-derives
// the seed-stream position an uninterrupted run would be at (every
// completed round consumed exactly one draw), resumes the convergence
// comparison against the last retained round's prices, and produces
// rounds bit-identical to the run the crash or shutdown interrupted.
func (c *Campaign) Run(ctx context.Context) (Result, error) {
	c.mu.Lock()
	if c.status != StatusPending {
		status := c.status
		c.mu.Unlock()
		return c.Snapshot(), fmt.Errorf("campaign: Run on a %s campaign", status)
	}
	c.status = StatusRunning
	start := c.roundsRun
	var prevPrices []int
	if n := len(c.rounds); n > 0 {
		prevPrices = append([]int(nil), c.rounds[n-1].Prices...)
	}
	c.mu.Unlock()

	seeds := randx.New(c.cfg.Seed)
	for i := 0; i < start; i++ {
		seeds.Uint64()
	}
	for round := start; round < c.cfg.MaxRounds; round++ {
		// Every round consumes its seed before any early exit, so
		// retained rounds use the same seeds regardless of when a
		// previous run stopped.
		roundSeed := seeds.Uint64()
		if err := ctx.Err(); err != nil {
			return c.stop(ctx, "canceled before round "+fmt.Sprint(round))
		}
		c.mu.Lock()
		remaining := c.remaining
		c.mu.Unlock()
		budget := c.cfg.RoundBudget
		if remaining < budget {
			budget = remaining
		}
		if budget < c.cfg.minRoundCost() {
			return c.finishJournal(StatusBudgetExhausted,
				fmt.Sprintf("remaining budget %d cannot fund a round (minimum %d)", remaining, c.cfg.minRoundCost())), nil
		}

		// (1) Tune: solve the round under the current belief. A deadline
		// campaign first runs the [29] comparator as its SLO admission
		// check — a belief under which no price meets the SLO stops the
		// loop before it spends a round that cannot succeed.
		belief := c.model()
		var slo *SLOInfo
		if c.cfg.Deadline != nil {
			var admitErr error
			slo, admitErr = c.deadlineAdmission(belief)
			if admitErr != nil {
				return c.finishJournal(StatusSLOInfeasible,
					fmt.Sprintf("round %d: deadline SLO inadmissible under the current belief: %v", round, admitErr)), nil
			}
		}
		p := c.roundProblem(belief, budget)
		algo := solverFor(c.cfg.Groups)
		var prices []int
		var spent int
		var err error
		if algo == "ha" {
			var res htuning.HeterogeneousResult
			res, err = htuning.SolveHeterogeneous(c.est, p)
			prices, spent = res.Prices, res.Spent
		} else {
			var res htuning.RepetitionResult
			res, err = htuning.SolveRepetition(c.est, p)
			prices, spent = res.Prices, res.Spent
		}
		if err != nil {
			final := c.finishJournal(StatusFailed, fmt.Sprintf("round %d: solve: %v", round, err))
			return final, fmt.Errorf("campaign %s: round %d: solve: %w", c.cfg.Name, round, err)
		}
		alloc, err := htuning.NewUniformAllocation(p, prices)
		if err != nil {
			final := c.finishJournal(StatusFailed, fmt.Sprintf("round %d: allocation: %v", round, err))
			return final, fmt.Errorf("campaign %s: round %d: allocation: %w", c.cfg.Name, round, err)
		}

		// (2) Post & observe: execute the allocation on the backend.
		obs, err := c.exec.Execute(ctx, round, p, alloc, roundSeed)
		if err != nil {
			if ctx.Err() != nil {
				return c.stop(ctx, fmt.Sprintf("canceled during round %d", round))
			}
			final := c.finishJournal(StatusFailed, fmt.Sprintf("round %d: execute: %v", round, err))
			return final, fmt.Errorf("campaign %s: round %d: execute: %w", c.cfg.Name, round, err)
		}
		// A cancel that lands mid-execution must not publish the round:
		// the belief stays exactly as the last completed round left it.
		if err := ctx.Err(); err != nil {
			return c.stop(ctx, fmt.Sprintf("canceled during round %d", round))
		}

		// (3) Re-fit: fold the observed traces and publish atomically.
		// Executors that spend beyond the solver's first-phase allocation
		// (crowd queries, retainer fees) override the round's spend.
		if obs.Spent != nil {
			spent = *obs.Spent
		}
		if slo != nil {
			slo.Violated = obs.Makespan > c.cfg.Deadline.Makespan
		}
		fit, pending, delta, first := c.fold(obs.Records)
		snap := RoundSnapshot{
			Round:      round,
			Algorithm:  algo,
			Model:      belief.Name(),
			Budget:     budget,
			Spent:      spent,
			Prices:     prices,
			Records:    len(obs.Records),
			Makespan:   obs.Makespan,
			Fit:        fit,
			FitPending: pending,
			FitDelta:   delta,
			Query:      obs.Query,
			SLO:        slo,
			Retainer:   obs.Retainer,
		}
		c.record(snap)

		// (4) Converged? The loop is at a fixed point when the allocation
		// repeated and the belief moved by at most Epsilon (an unchanged
		// belief — nothing new publishable — counts as a zero move; a
		// first-ever fit never does, its delta is undefined).
		stable := fit == nil || (!first && delta <= c.cfg.Epsilon)
		if round > 0 && stable && samePrices(prevPrices, prices) {
			res := c.finish(StatusConverged,
				fmt.Sprintf("fixed point after round %d: allocation repeated, belief moved %.4g <= epsilon %.4g", round, delta, c.cfg.Epsilon))
			// The convergence verdict rides the deciding round's own
			// journal record: the checkpoint below already carries the
			// terminal status.
			c.journalRound(snap)
			return res, nil
		}
		c.journalRound(snap)
		prevPrices = prices
	}
	return c.finishJournal(StatusMaxRounds, fmt.Sprintf("round deadline %d reached", c.cfg.MaxRounds)), nil
}

// samePrices reports whether two per-group price vectors are identical.
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

// Run builds and drives one campaign to completion — the convenience
// wrapper the CLI and examples use.
func Run(ctx context.Context, est *htuning.Estimator, cfg Config) (Result, error) {
	c, err := New(est, cfg)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx)
}
