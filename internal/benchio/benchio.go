// Package benchio is the I/O layer of the standing benchmark subsystem:
// the versioned BENCH_<suite>.json trajectory files that record the
// repository's measured performance over time, the environment capture
// they embed, and the tolerance comparison CI uses to smoke-guard
// regressions. cmd/htbench produces the files; make bench-compare (and
// the CI bench job) diffs a freshly measured suite against the
// committed baseline through Compare.
//
// The schema extends the original hand-written BENCH_campaign.json: the
// same environment block and per-benchmark counters (ns_per_op,
// bytes_per_op, allocs_per_op, ms_per_round), with the single "results"
// object generalized to a "benchmarks" list so one suite file records
// several benchmarks.
package benchio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Environment describes the machine a suite was measured on — the block
// every BENCH_*.json embeds so a trajectory diff knows when it is
// comparing across machine classes.
type Environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note,omitempty"`
}

// CaptureEnvironment records the current process's environment. The CPU
// model is read best-effort from /proc/cpuinfo (empty where the
// platform does not expose it).
func CaptureEnvironment() Environment {
	return Environment{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel parses the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// Result is one benchmark's measurement inside a suite.
type Result struct {
	// Name is the benchmark's name within the suite ("RASolve",
	// "CampaignFleet", ...).
	Name string `json:"name"`
	// Iterations is b.N of the recorded run.
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MsPerRound breaks NsPerOp down by the benchmark's inner unit of
	// work (campaign rounds, replication rounds); 0 when the benchmark
	// has no such unit.
	MsPerRound float64 `json:"ms_per_round,omitempty"`
	// Workers is the worker-pool width the benchmark ran with — the
	// scaling suites' independent variable. 0 means the benchmark has no
	// worker dimension (single-threaded or GOMAXPROCS-implicit).
	Workers int `json:"workers,omitempty"`
	// SpeedupVsSerial is this measurement's throughput relative to the
	// same workload at Workers=1 within the same suite run (old ns_per_op
	// / new ns_per_op); 0 when not computed. It is what the speedup-vs-
	// workers curves plot.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// Note carries benchmark-specific context for human readers.
	Note string `json:"note,omitempty"`
}

// FromBenchmarkResult converts a testing.Benchmark measurement. rounds
// is the benchmark's inner rounds per iteration for MsPerRound (0 for
// none).
func FromBenchmarkResult(name string, r testing.BenchmarkResult, rounds int) Result {
	res := Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if rounds > 0 {
		res.MsPerRound = res.NsPerOp / float64(rounds) / 1e6
	}
	return res
}

// Suite is one BENCH_<suite>.json document.
type Suite struct {
	// Suite names the benchmark group ("campaign", "solvers", ...); the
	// file it lives in is BENCH_<suite>.json.
	Suite string `json:"suite"`
	// Package is the Go package the measured code lives in.
	Package string `json:"package"`
	// Description says what one iteration of the suite's benchmarks
	// measures.
	Description string `json:"description"`
	// Recorded is the ISO date the measurement was taken.
	Recorded string `json:"recorded"`
	// Commit is the short hash of the commit the measurement was taken
	// at ("unknown" when not supplied).
	Commit      string      `json:"commit"`
	Environment Environment `json:"environment"`
	Benchmarks  []Result    `json:"benchmarks"`
	// Command reproduces the measurement.
	Command string `json:"command"`
}

// Read loads a suite file. A file without a benchmarks list is an
// error, not an empty suite.
func Read(path string) (Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Suite{}, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return Suite{}, fmt.Errorf("benchio: %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return Suite{}, fmt.Errorf("benchio: %s: no benchmarks", path)
	}
	return s, nil
}

// Write stores the suite as pretty-printed JSON with a trailing newline
// and no HTML escaping (the files are committed; diffs should be
// line-stable and arrows readable).
func Write(path string, s Suite) error {
	if s.Suite == "" {
		return fmt.Errorf("benchio: suite name required")
	}
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("benchio: suite %q has no benchmarks", s.Suite)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Tolerance bounds how much a fresh measurement may drift above the
// baseline before Compare reports a regression. Ratios are new/old;
// values <= 1 disable that dimension's check. Only regressions fail —
// improvements are never an error.
type Tolerance struct {
	// MaxNsRatio flags ns/op drift (wall time is machine-sensitive;
	// keep this generous — CI compares a 1-iteration smoke run on a
	// shared runner against a committed baseline).
	MaxNsRatio float64
	// MaxAllocRatio flags allocs/op drift (allocation counts are nearly
	// machine-independent; a tighter bound holds).
	MaxAllocRatio float64
	// NsFloor exempts benchmarks whose baseline ns/op is below it from
	// the wall-time check: at smoke iteration counts, sub-microsecond
	// benchmarks measure timer overhead, not the code. allocs/op is
	// still guarded for them.
	NsFloor float64
	// AllocFloor is the absolute allocs/op a fresh run may always reach
	// before the allocation check fires: the drift limit is
	// max(old·MaxAllocRatio, AllocFloor). It keeps zero- and
	// near-zero-alloc baselines guarded (a ratio over 0 is undefined,
	// and 2→3 allocs is jitter, not a regression) without letting a
	// zero-alloc hot path silently regain real allocation. Zero means
	// no slack.
	AllocFloor int64
}

// EnvMismatchError is Compare's refusal to diff suites whose
// environments disagree on core count. It is a distinct type so callers
// can separate "these files must not be compared" from a drift verdict:
// the library always hard-errors, and the CI-facing compare command
// (cmd/htbench -compare) downgrades exactly this error to a loud
// skip-with-notice — a mismatched runner means the baselines need
// re-recording on that machine class, not that the code regressed.
type EnvMismatchError struct {
	Baseline, Fresh Environment
}

func (e *EnvMismatchError) Error() string {
	return fmt.Sprintf(
		"benchio: environment mismatch: baseline cpus=%d gomaxprocs=%d vs fresh cpus=%d gomaxprocs=%d; "+
			"cross-core-count comparisons are meaningless — re-record the baseline on this machine class",
		e.Baseline.CPUs, e.Baseline.GOMAXPROCS, e.Fresh.CPUs, e.Fresh.GOMAXPROCS)
}

// Regression is one tolerance violation (or structural mismatch) found
// by Compare.
type Regression struct {
	Benchmark string
	Metric    string // "ns/op", "allocs/op" or "missing"
	Old, New  float64
	Ratio     float64
}

// String renders the regression for logs.
func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but not in fresh run", r.Benchmark)
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx)", r.Benchmark, r.Metric, r.Old, r.New, r.Ratio)
}

// Compare checks every baseline benchmark against the fresh suite and
// returns the regressions: metric drift beyond the tolerance, and
// baseline benchmarks the fresh run no longer measures (silently
// dropped coverage reads as a pass otherwise). Fresh benchmarks absent
// from the baseline are ignored — adding coverage is not a regression.
//
// Compare refuses (with an *EnvMismatchError, before looking at any
// numbers) to diff suites whose environments disagree on cpus or
// GOMAXPROCS: a multi-core run against a single-core baseline measures
// the machine delta, not the code delta, and a drift verdict either way
// is garbage. Re-record the baseline on the comparison machine class
// instead.
func Compare(baseline, fresh Suite, tol Tolerance) ([]Regression, error) {
	if be, fe := baseline.Environment, fresh.Environment; be.CPUs != fe.CPUs || be.GOMAXPROCS != fe.GOMAXPROCS {
		return nil, &EnvMismatchError{Baseline: be, Fresh: fe}
	}
	byName := make(map[string]Result, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		byName[b.Name] = b
	}
	var regs []Regression
	for _, old := range baseline.Benchmarks {
		now, ok := byName[old.Name]
		if !ok {
			regs = append(regs, Regression{Benchmark: old.Name, Metric: "missing"})
			continue
		}
		if tol.MaxNsRatio > 1 && old.NsPerOp > tol.NsFloor && old.NsPerOp > 0 {
			if ratio := now.NsPerOp / old.NsPerOp; ratio > tol.MaxNsRatio {
				regs = append(regs, Regression{
					Benchmark: old.Name, Metric: "ns/op",
					Old: old.NsPerOp, New: now.NsPerOp, Ratio: ratio,
				})
			}
		}
		if tol.MaxAllocRatio > 1 {
			limit := float64(old.AllocsPerOp) * tol.MaxAllocRatio
			if floor := float64(tol.AllocFloor); limit < floor {
				limit = floor
			}
			if float64(now.AllocsPerOp) > limit {
				ratio := math.Inf(1)
				if old.AllocsPerOp > 0 {
					ratio = float64(now.AllocsPerOp) / float64(old.AllocsPerOp)
				}
				regs = append(regs, Regression{
					Benchmark: old.Name, Metric: "allocs/op",
					Old: float64(old.AllocsPerOp), New: float64(now.AllocsPerOp), Ratio: ratio,
				})
			}
		}
	}
	return regs, nil
}
