// Command htbench is the standing benchmark harness: it runs the
// declared benchmark suites against the live packages and emits
// versioned BENCH_<suite>.json trajectory files (internal/benchio
// schema), or diffs two such files with a tolerance so CI can
// smoke-guard regressions.
//
// Usage:
//
//	htbench [-suite all|campaign|solvers|market|inference|crowddb|scaling] [-benchtime 10x]
//	        [-out .] [-commit abc1234] [-list]
//	htbench -compare [-max-ns-ratio 2.0] [-max-alloc-ratio 1.5] BASELINE FRESH
//	htbench -loadtest MULT
//
// Each suite is a declared list of benchmarks over fixed seeds and
// sizes, executed through testing.Benchmark with the given -benchtime,
// so `make bench-suite` regenerates every committed baseline and
// `make bench-smoke` runs the whole surface once. `-suite scaling` is
// the multi-core measurement — three campaign-fleet shapes at 1/4/16/64
// workers, emitting speedup_vs_serial per cell (`make bench-scaling`);
// it is not part of "all" because its largest cells are too heavy for
// the smoke gate. The measurement methodology, the suite table and how
// to read the JSON live in docs/PERFORMANCE.md.
//
// Comparison exits non-zero when the fresh run drifted beyond tolerance
// on any baseline benchmark (ns/op ratio, allocs/op ratio) or dropped
// one entirely; improvements never fail. ns/op drift needs a generous
// bound when the two files come from different machine classes —
// allocs/op is the stable cross-machine signal. When the two files
// disagree on cpus/GOMAXPROCS no drift is computed at all: the compare
// exits zero with a ::warning notice that the baseline needs
// re-recording on the current machine class (cross-core-count numbers
// measure the machine delta, not the code delta).
//
// -loadtest MULT is the graceful-degradation check: it floods an
// in-process serving layer with MULT× more bulk clients than its
// admission pool holds while a campaign fleet runs, and exits non-zero
// unless every rejection carries the uniform error envelope, every
// campaign round runs (nothing starves), and admitted-solve p99 stays
// under the committed bound. `make bench-smoke` runs it at 10×.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("htbench: ")
	suite := flag.String("suite", "all", "suite to run (all, or one of the registered names)")
	benchtime := flag.String("benchtime", "10x", "benchmark time per measurement (testing -benchtime syntax)")
	out := flag.String("out", ".", "directory the BENCH_<suite>.json files are written to")
	commit := flag.String("commit", "unknown", "short commit hash recorded in the output")
	list := flag.Bool("list", false, "list the registered suites and benchmarks, run nothing")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files: htbench -compare BASELINE FRESH")
	maxNs := flag.Float64("max-ns-ratio", 2.0, "with -compare: fail when fresh ns/op exceeds baseline by this factor")
	maxAlloc := flag.Float64("max-alloc-ratio", 1.5, "with -compare: fail when fresh allocs/op exceeds baseline by this factor")
	nsFloor := flag.Float64("min-ns-floor", 10000, "with -compare: skip the ns/op check for benchmarks whose baseline is below this many ns (timer noise at smoke iteration counts); allocs/op is still checked")
	allocFloor := flag.Int64("alloc-floor", 16, "with -compare: absolute allocs/op slack — drift fails only above max(baseline*ratio, this); keeps zero-alloc baselines guarded without flagging single-alloc jitter")
	loadtest := flag.Int("loadtest", 0, "flood an in-process server at N× its admission limit and enforce the degradation bounds (0 = off)")
	testing.Init()
	flag.Parse()

	if *loadtest > 0 {
		if err := runLoadTest(*loadtest, log.Printf); err != nil {
			log.Fatal(err)
		}
		fmt.Println("loadtest: all degradation bounds held")
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs exactly two arguments: BASELINE FRESH")
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *maxNs, *maxAlloc, *nsFloor, *allocFloor); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *list {
		for _, s := range append(append([]suiteDef(nil), suites...), scalingSuite) {
			fmt.Printf("%s — %s\n", s.name, s.description)
			for _, b := range s.benchmarks {
				fmt.Printf("  %s\n", b.name)
			}
		}
		return
	}
	// testing.Benchmark reads the benchmark duration from the testing
	// package's own flag set; htbench is not a test binary, so the flag
	// is forwarded by hand.
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		log.Fatalf("bad -benchtime %q: %v", *benchtime, err)
	}
	selected, err := selectSuites(*suite)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range selected {
		doc, err := runSuite(s, *benchtime, *commit)
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*out, "BENCH_"+s.name+".json")
		if err := writeSuite(path, doc); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", path, len(doc.Benchmarks))
	}
}

// selectSuites resolves the -suite argument. "all" is the committed
// drift-baseline registry; the scaling suite is addressed by name only
// (it is the speedup-curve measurement, not a smoke gate — see `make
// bench-scaling`).
func selectSuites(name string) ([]suiteDef, error) {
	if name == "all" {
		return suites, nil
	}
	for _, s := range append(append([]suiteDef(nil), suites...), scalingSuite) {
		if s.name == name {
			return []suiteDef{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown suite %q (use -list)", name)
}

// runSuite measures every benchmark of the suite.
func runSuite(s suiteDef, benchtime, commit string) (suiteDoc, error) {
	doc := newSuiteDoc(s, benchtime, commit, time.Now().Format("2006-01-02"))
	for _, b := range s.benchmarks {
		fmt.Fprintf(os.Stderr, "%s/%s...\n", s.name, b.name)
		r := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			b.fn(tb)
		})
		if r.N == 0 {
			return doc, fmt.Errorf("suite %s: benchmark %s did not run (it likely failed; see output above)", s.name, b.name)
		}
		doc.add(b, r)
	}
	if s.finish != nil {
		s.finish(&doc)
	}
	return doc, nil
}
