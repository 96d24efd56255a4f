package hputune

import (
	"io"

	"hputune/internal/experiments"
	"hputune/internal/inference"
	"hputune/internal/market"
	"hputune/internal/textplot"
	"hputune/internal/trace"
	"hputune/internal/workload"
)

// Marketplace simulation, re-exported from the discrete-event engine that
// stands in for Amazon Mechanical Turk.
type (
	// Market is one marketplace simulation run.
	Market = market.Sim
	// MarketConfig parameterizes a run (mode, arrival rate, seed, horizon).
	MarketConfig = market.Config
	// MarketMode selects the acceptance mechanism.
	MarketMode = market.Mode
	// TaskClass describes one kind of task on the marketplace.
	TaskClass = market.TaskClass
	// TaskSpec is one task to post: class plus per-repetition prices.
	TaskSpec = market.TaskSpec
	// RepRecord is the trace of one completed repetition.
	RepRecord = market.RepRecord
	// TaskResult aggregates a completed task's repetitions.
	TaskResult = market.TaskResult
	// MarketSummary aggregates a finished run.
	MarketSummary = market.Summary
	// PhaseSeries are per-repetition latencies ordered by acceptance.
	PhaseSeries = market.PhaseSeries
)

// Marketplace acceptance modes.
const (
	// ModeIndependent accepts each open repetition on its own exponential
	// clock — the paper's analytical model.
	ModeIndependent = market.ModeIndependent
	// ModeWorkerChoice routes Poisson worker arrivals through a choice
	// among open tasks (introduces competition between tasks).
	ModeWorkerChoice = market.ModeWorkerChoice
)

// NewMarket creates a marketplace simulation.
func NewMarket(cfg MarketConfig) (*Market, error) { return market.New(cfg) }

// MarketBuffers is reusable backing storage for market simulations: a
// caller driving many runs in sequence hands the same *MarketBuffers to
// each NewMarketWithBuffers call, and steady-state runs allocate almost
// nothing. One MarketBuffers belongs to one Market at a time, and
// reusing it invalidates everything the previous run returned by
// reference (results, flattened records) — copy what must survive. See
// the "Scratch-buffer ownership" section of the package documentation.
type MarketBuffers = market.Buffers

// NewMarketWithBuffers is NewMarket recycling buf's backing storage
// (nil buf is exactly NewMarket). Buffer reuse is a pure allocation
// optimization: results are bit-identical to a fresh Market's.
func NewMarketWithBuffers(cfg MarketConfig, buf *MarketBuffers) (*Market, error) {
	return market.NewWithBuffers(cfg, buf)
}

// ReplicatedMakespans runs rounds independent simulations of the same
// task batch across a bounded worker pool (workers <= 0 means
// GOMAXPROCS) and returns each round's makespan in round order. Round
// i's seed derives only from (cfg.Seed, i), so the slice is a pure
// function of the arguments no matter the worker count — the
// deterministic batch primitive behind SimulateBatch and the
// experiments. Note the seed-compatibility consequence: replicated
// estimates at seed s do not reproduce a single-stream run at seed s
// (round 0 draws from a derived stream, not cfg.Seed itself).
func ReplicatedMakespans(cfg MarketConfig, specs []TaskSpec, rounds, workers int) ([]float64, error) {
	return market.ReplicatedMakespans(cfg, specs, rounds, workers)
}

// SummarizeMarket aggregates a finished run's results.
func SummarizeMarket(results []TaskResult) MarketSummary { return market.Summarize(results) }

// CollectPhases extracts ordered per-phase latency series from a run.
func CollectPhases(results []TaskResult) PhaseSeries { return market.CollectPhases(results) }

// Parameter inference (Sec 3.3 of the paper).
type (
	// RateEstimate is one estimated clock rate with its sample size.
	RateEstimate = inference.RateEstimate
	// Probe publishes probe tasks and measures acceptance rates.
	Probe = inference.Probe
	// LinearityResult is a probe sweep with its λo(c) linear fit.
	LinearityResult = inference.LinearityResult
)

// EstimateFixedPeriod applies the fixed-period MLE λ̂ = N/T₀.
func EstimateFixedPeriod(n int, period float64) (RateEstimate, error) {
	return inference.EstimateFixedPeriod(n, period)
}

// EstimateRandomPeriod applies the random-period MLE, optionally
// bias-corrected to (N−1)/T₀.
func EstimateRandomPeriod(n int, period float64, biasCorrect bool) (RateEstimate, error) {
	return inference.EstimateRandomPeriod(n, period, biasCorrect)
}

// EstimateFromDurations is the MLE for iid exponential observations.
func EstimateFromDurations(durations []float64) (RateEstimate, error) {
	return inference.EstimateFromDurations(durations)
}

// SplitPhases recovers λp = λ − λo from overall and on-hold estimates.
func SplitPhases(overall, onhold RateEstimate) (RateEstimate, error) {
	return inference.SplitPhases(overall, onhold)
}

// Experiment reproduction (every table and figure of the paper).
type (
	// ExperimentConfig tunes experiment fidelity (seed, trials, rounds).
	ExperimentConfig = experiments.Config
	// ExperimentResult is one experiment's figures and notes.
	ExperimentResult = experiments.Result
	// Figure is a renderable chart of named series.
	Figure = textplot.Figure
	// Series is one named line of (x, y) points.
	Series = textplot.Series
)

// ExperimentNames lists the reproducible experiments in paper order.
func ExperimentNames() []string { return experiments.Names() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(name string) (string, error) { return experiments.Describe(name) }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(name string, cfg ExperimentConfig) (ExperimentResult, error) {
	return experiments.Run(name, cfg)
}

// RenderChart draws a figure as an ASCII chart.
func RenderChart(f Figure, width, height int) string { return textplot.RenderChart(f, width, height) }

// RenderTable renders a figure's series as an aligned numeric table.
func RenderTable(f Figure) string { return textplot.RenderTable(f) }

// Calibrated workloads (the paper's experimental setups).

// CalibratedAcceptModel returns the AMT price→rate table measured by the
// paper ($0.05–$0.12 → 0.0038–0.0131 s⁻¹); prices in cents.
func CalibratedAcceptModel() (RateModel, error) { return workload.CalibratedAcceptModel() }

// ImageFilterClass returns the Sec 5.2 image-filter marketplace class
// with 4, 6 or 8 internal votes.
func ImageFilterClass(votes int) (*TaskClass, error) { return workload.ImageFilterClass(votes) }

// Fig5cProblem builds the Mechanical-Turk tuning comparison instance
// (three types, 10/15/20 repetitions) at a budget in cents.
func Fig5cProblem(budgetCents int) (Problem, error) { return workload.Fig5cProblem(budgetCents) }

// SpecsForAllocation materializes a tuned allocation as marketplace task
// specs ready to post (accuracy is the simulated worker correctness).
func SpecsForAllocation(p Problem, a Allocation, accuracy float64) ([]TaskSpec, error) {
	return workload.SpecsForAllocation(p, a, accuracy)
}

// Trace interchange: serialize marketplace repetition records for offline
// inference (the paper's Sec 3.3 pipeline run against collected traces).

// WriteTraceCSV writes repetition records as CSV with a header row.
func WriteTraceCSV(w io.Writer, recs []RepRecord) error { return trace.WriteCSV(w, recs) }

// ReadTraceCSV reads records written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) ([]RepRecord, error) { return trace.ReadCSV(r) }

// WriteTraceJSONL writes repetition records as JSON Lines.
func WriteTraceJSONL(w io.Writer, recs []RepRecord) error { return trace.WriteJSONL(w, recs) }

// ReadTraceJSONL reads records written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) ([]RepRecord, error) { return trace.ReadJSONL(r) }

// TraceOnHoldDurations extracts per-record on-hold latencies from a trace.
func TraceOnHoldDurations(recs []RepRecord) []float64 { return trace.OnHoldDurations(recs) }

// TraceProcessingDurations extracts per-record processing latencies.
func TraceProcessingDurations(recs []RepRecord) []float64 { return trace.ProcessingDurations(recs) }

// TraceGroupByPrice buckets trace records by offered price.
func TraceGroupByPrice(recs []RepRecord) map[int][]RepRecord { return trace.GroupByPrice(recs) }
