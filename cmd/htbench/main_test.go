package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"hputune/internal/benchio"
)

func TestSelectSuites(t *testing.T) {
	all, err := selectSuites("all")
	if err != nil || len(all) != len(suites) {
		t.Fatalf("selectSuites(all) = %d suites, err %v", len(all), err)
	}
	one, err := selectSuites("market")
	if err != nil || len(one) != 1 || one[0].name != "market" {
		t.Fatalf("selectSuites(market) = %+v, err %v", one, err)
	}
	// The scaling suite resolves by name but never rides "all": its 10k
	// cells would turn every smoke run into a minutes-long measurement.
	sc, err := selectSuites("scaling")
	if err != nil || len(sc) != 1 || sc[0].name != "scaling" {
		t.Fatalf("selectSuites(scaling) = %+v, err %v", sc, err)
	}
	for _, s := range all {
		if s.name == "scaling" {
			t.Error("scaling suite must not be part of -suite all")
		}
	}
	if _, err := selectSuites("nope"); err == nil {
		t.Error("selectSuites accepted an unknown suite")
	}
	// Suite names are the lookup key here and the first path element of
	// BenchmarkSuite/<suite>/<name>: a duplicate would be shadowed by
	// selectSuites and renamed "#01" by the bench adapter. (Benchmark
	// names within a suite are pinned unique by TestSuiteRegistry and
	// TestScalingSuiteShape.)
	names := map[string]bool{}
	for _, s := range append(append([]suiteDef(nil), suites...), scalingSuite) {
		if names[s.name] {
			t.Errorf("duplicate suite name %q", s.name)
		}
		names[s.name] = true
	}
}

// TestScalingSuiteShape pins the scaling grid: every fleet shape is
// measured at every worker count, each cell carries its workers
// dimension, and names are unique.
func TestScalingSuiteShape(t *testing.T) {
	want := len(scalingFleets) * len(scalingWorkerGrid)
	if len(scalingSuite.benchmarks) != want {
		t.Fatalf("scaling suite has %d cells, want %d", len(scalingSuite.benchmarks), want)
	}
	seen := map[string]bool{}
	byWorkers := map[int]int{}
	for _, b := range scalingSuite.benchmarks {
		if seen[b.name] {
			t.Errorf("duplicate scaling cell %s", b.name)
		}
		seen[b.name] = true
		if b.workers < 1 {
			t.Errorf("cell %s has no workers dimension", b.name)
		}
		byWorkers[b.workers]++
	}
	for _, w := range scalingWorkerGrid {
		if byWorkers[w] != len(scalingFleets) {
			t.Errorf("worker count %d measured %d times, want %d", w, byWorkers[w], len(scalingFleets))
		}
	}
	if scalingSuite.finish == nil {
		t.Error("scaling suite has no finish hook; speedup_vs_serial would never be filled")
	}
}

// TestScalingSpeedupDerivation drives the finish hook on a fabricated
// measurement: each cell's speedup must be its fleet's W1 ns/op over its
// own, and the serial cells must read exactly 1.
func TestScalingSpeedupDerivation(t *testing.T) {
	doc := suiteDoc{benchio.Suite{Suite: "scaling"}}
	doc.Benchmarks = []benchio.Result{
		{Name: "Fleet16W1", Workers: 1, NsPerOp: 8e6},
		{Name: "Fleet16W4", Workers: 4, NsPerOp: 2e6},
		{Name: "Fleet256W1", Workers: 1, NsPerOp: 1e7},
		{Name: "Fleet256W4", Workers: 4, NsPerOp: 2e7}, // a slowdown: speedup < 1, still recorded
	}
	scalingSuite.finish(&doc)
	wantSpeedup := map[string]float64{
		"Fleet16W1": 1, "Fleet16W4": 4,
		"Fleet256W1": 1, "Fleet256W4": 0.5,
	}
	for _, b := range doc.Benchmarks {
		if got := b.SpeedupVsSerial; got != wantSpeedup[b.Name] {
			t.Errorf("%s: speedup %.3g, want %.3g", b.Name, got, wantSpeedup[b.Name])
		}
	}
}

// TestSuiteRegistry pins the declared surface: the five committed
// baselines exist, every benchmark is named, and names are unique
// within a suite (Compare matches by name).
func TestSuiteRegistry(t *testing.T) {
	want := map[string]bool{"campaign": true, "solvers": true, "market": true, "inference": true, "crowddb": true}
	for _, s := range suites {
		if !want[s.name] {
			t.Errorf("unregistered suite name %q", s.name)
		}
		delete(want, s.name)
		if s.pkg == "" || s.description == "" {
			t.Errorf("suite %s missing pkg or description", s.name)
		}
		seen := map[string]bool{}
		for _, b := range s.benchmarks {
			if b.name == "" || b.fn == nil {
				t.Errorf("suite %s has an unnamed or bodyless benchmark", s.name)
			}
			if seen[b.name] {
				t.Errorf("suite %s: duplicate benchmark %s", s.name, b.name)
			}
			seen[b.name] = true
		}
	}
	for name := range want {
		t.Errorf("suite %s not registered", name)
	}
}

// TestRunSuitesAndCompare drives the real harness end to end on the
// cheap suites at one iteration: measure, write, self-compare (always
// within tolerance), then a doctored regression must fail. The campaign
// suite is exercised by BenchmarkSuite/campaign and the fleet tests; its
// two fleet runs per benchmark are too heavy for the unit suite.
func TestRunSuitesAndCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"solvers", "market", "inference"} {
		sel, err := selectSuites(name)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := runSuite(sel[0], "1x", "testcommit")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(doc.Benchmarks) != len(sel[0].benchmarks) {
			t.Fatalf("%s: measured %d of %d benchmarks", name, len(doc.Benchmarks), len(sel[0].benchmarks))
		}
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := writeSuite(path, doc); err != nil {
			t.Fatal(err)
		}
		if err := runCompare(path, path, 2.0, 1.5, 10000, 16); err != nil {
			t.Errorf("%s: self-compare failed: %v", name, err)
		}
	}
	// Doctor a gross allocation regression into a copy and require the
	// comparison to fail on it.
	base, err := benchio.Read(filepath.Join(dir, "BENCH_market.json"))
	if err != nil {
		t.Fatal(err)
	}
	worse := base
	worse.Benchmarks = append([]benchio.Result(nil), base.Benchmarks...)
	for i := range worse.Benchmarks {
		worse.Benchmarks[i].AllocsPerOp = worse.Benchmarks[i].AllocsPerOp*2 + 100
	}
	worsePath := filepath.Join(dir, "BENCH_market_worse.json")
	if err := benchio.Write(worsePath, worse); err != nil {
		t.Fatal(err)
	}
	err = runCompare(filepath.Join(dir, "BENCH_market.json"), worsePath, 2.0, 1.5, 10000, 16)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("doctored regression not caught: %v", err)
	}
}

// TestCompareEnvMismatchSkips pins the CI semantics of a core-count
// mismatch: benchio.Compare hard-refuses (its own test pins that), but
// runCompare — the `htbench -compare` / `make bench-compare` path —
// downgrades the refusal to a skip-with-notice (nil error). Anything
// else leaves the bench CI job deterministically red whenever the
// runner's core count differs from the baseline recorder's, which is a
// permanent state until someone re-records on the runner's machine
// class.
func TestCompareEnvMismatchSkips(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, cpus int) string {
		s := benchio.Suite{
			Suite:       "solvers",
			Package:     "p",
			Description: "d",
			Recorded:    "2026-08-07",
			Commit:      "abc1234",
			Environment: benchio.Environment{GOOS: "linux", GOARCH: "amd64", CPUs: cpus, GOMAXPROCS: cpus},
			Benchmarks:  []benchio.Result{{Name: "RASolve", Iterations: 1, NsPerOp: 1e6, AllocsPerOp: 10}},
		}
		path := filepath.Join(dir, name)
		if err := benchio.Write(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("BENCH_base.json", 1)
	fresh := mk("BENCH_fresh.json", 4)
	if err := runCompare(base, fresh, 2.0, 1.5, 10000, 16); err != nil {
		t.Errorf("env mismatch must skip-with-notice, not fail: %v", err)
	}
	// Matching environments still compare (and here, pass).
	if err := runCompare(base, base, 2.0, 1.5, 10000, 16); err != nil {
		t.Errorf("self-compare failed: %v", err)
	}
}

// TestLoadTestSmall runs the degradation harness at a small multiplier
// so every bound (envelope parity, zero starved rounds, p99) is
// exercised in the ordinary test suite; CI's bench-smoke runs 10×.
func TestLoadTestSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("floods an in-process server")
	}
	if err := runLoadTest(2, t.Logf); err != nil {
		t.Fatal(err)
	}
}
