package benchio

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sample() Suite {
	return Suite{
		Suite:       "solvers",
		Package:     "hputune/internal/htuning",
		Description: "solver hot paths",
		Recorded:    "2026-07-27",
		Commit:      "abc1234",
		Environment: CaptureEnvironment(),
		Benchmarks: []Result{
			{Name: "RASolve", Iterations: 100, NsPerOp: 1e6, BytesPerOp: 2048, AllocsPerOp: 12},
			{Name: "HASolve", Iterations: 10, NsPerOp: 9e6, BytesPerOp: 4096, AllocsPerOp: 40, MsPerRound: 0.5},
		},
		Command: "htbench -suite solvers",
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_solvers.json")
	want := sample()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestWriteRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	if err := Write(path, Suite{Suite: "x"}); err == nil {
		t.Error("Write accepted a suite with no benchmarks")
	}
	if err := Write(path, Suite{Benchmarks: []Result{{Name: "a"}}}); err == nil {
		t.Error("Write accepted a suite with no name")
	}
}

// TestReadRejectsMissingBenchmarks pins that a file without a
// benchmarks list — here the retired single-result schema, whose
// counters sat in a nested "results" object — fails loudly instead of
// reading as an empty suite that every comparison would pass.
func TestReadRejectsMissingBenchmarks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_campaign.json")
	old := `{"benchmark": "CampaignFleet", "results": {"iterations": 10, "ns_per_op": 1e8}}`
	if err := osWriteFile(path, []byte(old)); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "no benchmarks") {
		t.Fatalf("Read of a file without benchmarks: err %v, want a \"no benchmarks\" error", err)
	}
}

// mustCompare fails the test on Compare's environment-mismatch error;
// these tests build baseline and fresh from the same CaptureEnvironment,
// so a non-nil error is itself a bug.
func mustCompare(t *testing.T, baseline, fresh Suite, tol Tolerance) []Regression {
	t.Helper()
	regs, err := Compare(baseline, fresh, tol)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	return regs
}

func TestCompare(t *testing.T) {
	base := sample()
	tol := Tolerance{MaxNsRatio: 2.0, MaxAllocRatio: 1.5}

	fresh := sample()
	fresh.Benchmarks[0].NsPerOp *= 1.9   // inside tolerance
	fresh.Benchmarks[1].AllocsPerOp = 59 // 1.475x, inside
	if regs := mustCompare(t, base, fresh, tol); len(regs) != 0 {
		t.Errorf("drift inside tolerance flagged: %v", regs)
	}

	fresh = sample()
	fresh.Benchmarks[0].NsPerOp *= 2.5
	fresh.Benchmarks[1].AllocsPerOp = 61 // 1.525x
	regs := mustCompare(t, base, fresh, tol)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	if regs[0].Metric != "ns/op" || regs[1].Metric != "allocs/op" {
		t.Errorf("wrong metrics flagged: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "ns/op") {
		t.Errorf("regression string missing metric: %s", regs[0])
	}

	// An improvement is never a regression.
	fresh = sample()
	fresh.Benchmarks[0].NsPerOp /= 10
	fresh.Benchmarks[0].AllocsPerOp = 1
	if regs := mustCompare(t, base, fresh, tol); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}

	// Dropping a baseline benchmark is a regression (lost coverage);
	// adding a fresh one is not.
	fresh = sample()
	fresh.Benchmarks = fresh.Benchmarks[:1]
	fresh.Benchmarks = append(fresh.Benchmarks, Result{Name: "Extra", NsPerOp: 1})
	regs = mustCompare(t, base, fresh, tol)
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Benchmark != "HASolve" {
		t.Errorf("missing benchmark not flagged correctly: %v", regs)
	}
}

// TestCompareRejectsEnvironmentMismatch pins the root-bug guard: a
// baseline recorded at one core count must never be drift-compared
// against a run at another — Compare errors out before reading any
// number, for both a cpus and a GOMAXPROCS disagreement.
func TestCompareRejectsEnvironmentMismatch(t *testing.T) {
	tol := Tolerance{MaxNsRatio: 2.0, MaxAllocRatio: 1.5}

	base := sample()
	fresh := sample()
	fresh.Environment.CPUs = base.Environment.CPUs + 3
	regs, err := Compare(base, fresh, tol)
	if err == nil || !strings.Contains(err.Error(), "environment mismatch") {
		t.Fatalf("cpus mismatch not rejected: regs=%v err=%v", regs, err)
	}
	// The refusal is a typed error: the CI compare command keys its
	// skip-with-notice downgrade on exactly this type.
	var mismatch *EnvMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("mismatch error is %T, want *EnvMismatchError", err)
	}
	if mismatch.Fresh.CPUs != fresh.Environment.CPUs {
		t.Errorf("EnvMismatchError.Fresh.CPUs = %d, want %d", mismatch.Fresh.CPUs, fresh.Environment.CPUs)
	}
	if regs != nil {
		t.Errorf("rejected comparison still produced regressions: %v", regs)
	}

	fresh = sample()
	fresh.Environment.GOMAXPROCS = base.Environment.GOMAXPROCS + 1
	if _, err := Compare(base, fresh, tol); err == nil {
		t.Error("GOMAXPROCS mismatch not rejected")
	}

	// Even a run with gross regressions must fail on the environment,
	// not the numbers: the numbers are meaningless across machines.
	fresh = sample()
	fresh.Environment.CPUs = base.Environment.CPUs + 1
	fresh.Benchmarks[0].NsPerOp *= 100
	if _, err := Compare(base, fresh, tol); err == nil || !strings.Contains(err.Error(), "cpus=") {
		t.Errorf("env mismatch error should name the core counts, got: %v", err)
	}
}

// TestResultWorkersRoundTrip pins the scaling dimension's schema: the
// workers count and speedup survive a write/read cycle, and both are
// omitted from the JSON when zero (pre-scaling baselines stay
// byte-stable).
func TestResultWorkersRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scaling.json")
	want := sample()
	want.Benchmarks[0].Workers = 4
	want.Benchmarks[0].SpeedupVsSerial = 1.7
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	raw, err := osReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(raw), `"workers"`) != 1 {
		t.Errorf("workers should be omitted when zero; file:\n%s", raw)
	}
}

// TestCompareZeroAllocBaseline pins that a zero-alloc baseline stays
// guarded: drift beyond the absolute AllocFloor fails even though a
// ratio over zero is undefined, while jitter within the floor passes.
func TestCompareZeroAllocBaseline(t *testing.T) {
	base := sample()
	base.Benchmarks[0].AllocsPerOp = 0
	tol := Tolerance{MaxNsRatio: 2.0, MaxAllocRatio: 1.5, AllocFloor: 16}

	fresh := sample()
	fresh.Benchmarks[0].AllocsPerOp = 16 // at the floor: jitter, not a regression
	if regs := mustCompare(t, base, fresh, tol); len(regs) != 0 {
		t.Errorf("within-floor drift over a zero baseline flagged: %v", regs)
	}

	fresh = sample()
	fresh.Benchmarks[0].AllocsPerOp = 50 // a real allocation came back
	regs := mustCompare(t, base, fresh, tol)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("zero-alloc baseline regression not flagged: %v", regs)
	}
	if !math.IsInf(regs[0].Ratio, 1) {
		t.Errorf("ratio over zero baseline should report +Inf, got %v", regs[0].Ratio)
	}

	// The floor also absorbs near-zero jitter on tiny baselines.
	base = sample()
	base.Benchmarks[0].AllocsPerOp = 2
	fresh = sample()
	fresh.Benchmarks[0].AllocsPerOp = 4 // 2x, but under the absolute floor
	if regs := mustCompare(t, base, fresh, tol); len(regs) != 0 {
		t.Errorf("sub-floor jitter on a tiny baseline flagged: %v", regs)
	}
}

func TestCaptureEnvironment(t *testing.T) {
	env := CaptureEnvironment()
	if env.GOOS == "" || env.GOARCH == "" || env.CPUs < 1 || env.GOMAXPROCS < 1 {
		t.Errorf("incomplete environment: %+v", env)
	}
}

// TestFromBenchmarkResult pins the counter conversion and the
// per-round breakdown.
func TestFromBenchmarkResult(t *testing.T) {
	r := benchResult(50, 5*time.Second, 1000, 2_000_000)
	res := FromBenchmarkResult("X", r, 128)
	if res.Iterations != 50 || res.NsPerOp != 1e8 || res.AllocsPerOp != 20 {
		t.Errorf("conversion wrong: %+v", res)
	}
	if want := 1e8 / 128 / 1e6; res.MsPerRound != want {
		t.Errorf("MsPerRound = %v, want %v", res.MsPerRound, want)
	}
	if res := FromBenchmarkResult("X", r, 0); res.MsPerRound != 0 {
		t.Errorf("roundless benchmark got MsPerRound %v", res.MsPerRound)
	}
}
