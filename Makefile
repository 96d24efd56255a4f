# Targets mirror the CI pipeline (.github/workflows/ci.yml) so local
# runs and CI agree on what passing means.

GO ?= go

# COVER_MIN is the total-coverage floor `make cover` enforces — pinned
# just under the level at PR merge (82.9%) to absorb sub-point
# platform variance; raise it as coverage grows, never lower it.
COVER_MIN ?= 82.4

.PHONY: all build test race bench lint fmt cover cover-check fuzz-smoke linkcheck doccheck docs bench-campaign bench-suite bench-smoke bench-compare bench-scaling

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 1800s ./...

race:
	$(GO) test -race -timeout 1800s ./...

# bench smoke: run every benchmark once, no timing claims. The only
# Benchmark function is cmd/htbench's adapter over the htbench suites
# registry (BenchmarkSuite/<suite>/<name>; scaling excluded, as under
# -suite all), so this smoke-runs exactly the recorded benchmarks.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -timeout 1800s ./...

# cover runs the suite with per-package coverage and enforces the
# floor. CI folds the profile into the race run instead (one suite
# execution) and calls cover-check on the existing profile.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic -timeout 1800s ./...
	@$(MAKE) --no-print-directory cover-check

# cover-check fails when the total of an existing coverage.out drops
# below COVER_MIN.
cover-check:
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "total coverage %.1f%% below minimum %.1f%%\n", t, min; exit 1 } \
		printf "total coverage %.1f%% meets the %.1f%% floor\n", t, min }'

# fuzz smoke: run each fuzz target briefly so regressions in the trace
# readers, the WAL decoder and the campaign spec parser surface in CI
# without a long fuzzing budget. Runs under -race: the WAL decoder
# feeds a concurrent store and the cheap smoke budget is the one place
# fuzzing and the race detector meet.
fuzz-smoke:
	$(GO) test -race -run=NONE -fuzz=FuzzReadCSV -fuzztime=10s ./internal/trace
	$(GO) test -race -run=NONE -fuzz=FuzzReadJSONL -fuzztime=10s ./internal/trace
	$(GO) test -race -run=NONE -fuzz=FuzzWALDecode -fuzztime=10s ./internal/store
	$(GO) test -race -run=NONE -fuzz=FuzzShipDecode -fuzztime=10s ./internal/cluster
	$(GO) test -race -run=NONE -fuzz=FuzzAggregatesDecode -fuzztime=10s ./internal/cluster
	$(GO) test -race -run=NONE -fuzz=FuzzParseCampaigns -fuzztime=10s ./internal/spec

lint:
	@diff=$$(gofmt -l .); \
	if [ -n "$$diff" ]; then \
		echo "files need gofmt:" >&2; echo "$$diff" >&2; exit 1; \
	fi
	$(GO) vet ./...

fmt:
	gofmt -w .

# linkcheck verifies every relative markdown link in the top-level and
# docs/ markdown points at an existing file.
linkcheck:
	sh scripts/mdlinkcheck.sh README.md ROADMAP.md CHANGES.md PAPER.md docs/*.md

# doccheck guards that every internal/* package has a package comment
# (pkg.go.dev renders nothing for packages without one).
doccheck:
	sh scripts/doccheck.sh

# docs mirrors the CI docs job.
docs: linkcheck doccheck
	$(GO) vet ./...

# The standing benchmark subsystem (cmd/htbench + internal/benchio).
# BENCH_SUITES lists the committed BENCH_<suite>.json baselines;
# methodology and how to read them: docs/PERFORMANCE.md.
BENCH_SUITES ?= campaign solvers market inference crowddb
BENCH_COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
BENCH_FRESH_DIR ?= bench-fresh

# bench-suite regenerates every committed baseline in place (run on a
# quiet machine; commit the JSON alongside the change that moved the
# numbers).
bench-suite:
	$(GO) run ./cmd/htbench -suite all -benchtime 10x -out . -commit $(BENCH_COMMIT)

# bench-campaign regenerates only BENCH_campaign.json (machine-written;
# never hand-edit the JSON).
bench-campaign:
	$(GO) run ./cmd/htbench -suite campaign -benchtime 10x -out . -commit $(BENCH_COMMIT)

# bench-scaling regenerates BENCH_scaling.json: three campaign-fleet
# shapes at 1/4/16/64 workers, emitting speedup_vs_serial per cell — the
# multi-core scaling measurement (docs/PERFORMANCE.md "Multi-core
# scaling"). Heavier than the smoke suites (~a minute); run it on a
# quiet machine and commit the JSON when the curves move.
bench-scaling:
	$(GO) run ./cmd/htbench -suite scaling -benchtime 3x -out . -commit $(BENCH_COMMIT)

# bench-smoke measures the whole suite surface at a few iterations into
# $(BENCH_FRESH_DIR) — cheap enough for CI (benchmarks warm up before
# their timers start, so small iteration counts still read steady
# state), and the input bench-compare diffs against the committed
# baselines. It then runs the load-test harness at 10× the admission
# limit: the target fails if any rejection lacks the error envelope, a
# campaign round starves, or admitted-solve p99 breaks its bound.
bench-smoke:
	mkdir -p $(BENCH_FRESH_DIR)
	$(GO) run ./cmd/htbench -suite all -benchtime 10x -out $(BENCH_FRESH_DIR) -commit $(BENCH_COMMIT)
	$(GO) run ./cmd/htbench -loadtest 10

# bench-compare fails on >2x ns/op or >1.5x allocs/op drift of any
# baseline benchmark (generous on wall time — CI machines differ from
# the baseline machine; allocs/op is the stable cross-machine signal;
# sub-10µs baselines skip the wall-time check entirely, it is timer
# noise at smoke iteration counts; allocation drift has a 16-alloc
# absolute slack so zero-alloc baselines stay guarded without flagging
# single-alloc jitter). A cpus/GOMAXPROCS mismatch between baseline and
# fresh environments skips that suite with a loud ::warning instead of
# computing cross-core-count drift (garbage) or hard-failing (CI
# permanently red until a re-record): re-record with bench-suite on the
# comparison machine class to re-arm the gate.
bench-compare:
	@status=0; for s in $(BENCH_SUITES); do \
		$(GO) run ./cmd/htbench -compare -max-ns-ratio 2.0 -max-alloc-ratio 1.5 \
			-min-ns-floor 10000 -alloc-floor 16 \
			BENCH_$$s.json $(BENCH_FRESH_DIR)/BENCH_$$s.json || status=1; \
	done; exit $$status
