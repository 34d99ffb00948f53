# BBSched build/test/bench entry points — the same commands CI runs.

GO ?= go

.PHONY: all build test test-full race bench bench-smoke bench-solver bench-module bench-digests bench-run bench-json bench-check bench-check-file sweep-smoke farm-smoke fuzz-smoke cover-gate lint fmt vet staticcheck clean

all: lint build test

build:
	$(GO) build ./...

# Short suite: what the CI test job runs (well under 2 minutes).
test:
	$(GO) test -short ./...

# Full suite, including the ~minute-long replicate/claims experiments.
test-full:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Full benchmark pass (one iteration each; for timing runs raise -benchtime).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Smoke only: the internal/moo GA benches (SolveGA and the frozen seed
# implementation it is compared against) build and finish one iteration
# each. One iteration times nothing; bench-solver is the comparison.
bench-smoke:
	$(GO) test -bench=SolveGA -benchtime=1x -run='^$$' ./internal/moo

# The solver perf harness: the member-loop GA vs the frozen seed
# implementation (ga_reference_test.go) on the same fixed-seed instances,
# 20 solves each.
bench-solver:
	$(GO) test -bench='^BenchmarkSolveGA' -benchtime=20x -run='^$$' ./internal/moo

# The repository benchmark (bench/, declared by BENCHMARK.json) is a Go
# module of its own, so `go build ./...` and `go test ./...` at the root
# never compile it. It calls queue, backfill, core, sim and farm through
# their exported functions: vet and test it here so that an API change
# that breaks bench/layers.go fails a PR, not the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One short untraced round of each of the five BENCHMARK.json workloads at
# seed 42 (about a minute): the run fails on any result digest or quality
# pin in bench/pinned.json that moved. The digests hash every Result
# float — the exact wait percentiles on the replays, the P² ones on
# stream-1m — so this is the end-to-end guard that a refactor of the
# engine or its metrics left every schedule and report bit-identical.
# One second times nothing; the benchmark's own runs do the timing.
bench-digests:
	bash bench/run.sh --workload all --seconds 1 --trace 0

# Performance trajectory: the sim benches (materialized 20k-job engine,
# the deep-queue bench whose queue passes 1 000 waiting jobs, the 1M-job
# streaming-ingestion bench with its peak-live-heap ceiling, checkpoint
# encode/decode/restore) plus the window-solver benches
# (MOGA BenchmarkSolveGA; LP BenchmarkSolveLP vs BenchmarkSolveGAWindow
# on 64/128-job windows, one row per half-loaded giant window
# w=1024…8192, plus its saturated w=1024 decision, a dead window answered
# without a solve; the racing BenchmarkSolvePortfolio, capped at
# 20 iterations since each solve waits out its slowest member);
# write/refresh the committed BENCH_sim.json
# baseline from their combined output. The stream-1M bench runs once
# (-benchtime=1x): one iteration already replays a million jobs.
# -require fails the parse if any bench silently dropped out (e.g. its
# package failed to build: bench-run then stops early, and a pipeline's
# exit status is its last command's).
BENCH_REQUIRE = BenchmarkSimThroughput/materialized,BenchmarkSimThroughput/deep-queue,BenchmarkSimThroughput/stream-1M,BenchmarkSolveGA/,BenchmarkSolveLP/,BenchmarkSolveLP/saturated/w=1024,BenchmarkSolveLP/w=1024,BenchmarkSolveLP/w=2048,BenchmarkSolveLP/w=4096,BenchmarkSolveLP/w=8192,BenchmarkSolveGAWindow/,BenchmarkSolvePortfolio/,BenchmarkCheckpoint/,BenchmarkFarm/

# The gated bench family, listed here and nowhere else: prints the
# combined `go test -bench` output that bench-json, bench-check and the
# nightly CI job consume.
bench-run:
	@$(GO) test -bench '^BenchmarkSimThroughput$$/^materialized-20k$$' -benchtime=3x -run '^$$' ./internal/sim
	@$(GO) test -bench '^BenchmarkSimThroughput$$/^deep-queue$$' -benchtime=20x -run '^$$' ./internal/sim
	@$(GO) test -bench '^BenchmarkSimThroughput$$/^stream-1M$$' -benchtime=1x -run '^$$' ./internal/sim
	@$(GO) test -bench '^BenchmarkCheckpoint$$' -benchtime=10x -run '^$$' ./internal/sim
	@$(GO) test -bench '^BenchmarkSolveGA$$' -benchtime=20x -run '^$$' ./internal/moo
	@$(GO) test -bench '^BenchmarkSolve(LP|GAWindow)$$' -benchtime=5s -run '^$$' ./internal/lp
	@$(GO) test -bench '^BenchmarkSolvePortfolio$$' -benchtime=20x -run '^$$' ./internal/lp
	@$(GO) test -bench '^BenchmarkFarm$$' -benchtime=3x -run '^$$' ./internal/farm

bench-json:
	$(MAKE) -s bench-run | $(GO) run ./cmd/benchjson -out BENCH_sim.json -require '$(BENCH_REQUIRE)'

# Regression gate: re-run the benches and fail if a rate metric
# (jobs/sec, solves/sec) drops >20%, an allocation metric (allocs/event,
# allocs/op) grows >20%, or the streaming engine's memory ceiling
# (peak-B from stream-1M) grows >20% vs the committed baseline. The
# nightly CI job tees bench-run's output into an artifact and gates that
# same file through bench-check-file.
BENCH_GATE = $(GO) run ./cmd/benchjson -check BENCH_sim.json -max-regress 0.20 -require '$(BENCH_REQUIRE)'

bench-check:
	$(MAKE) -s bench-run | $(BENCH_GATE)

bench-check-file:
	$(BENCH_GATE) < $(FILE)

# Guard the parallel RunSweep driver against races and nondeterminism:
# tiny method × seed grids (2 × 2) under -race, parallel vs serial.
sweep-smoke:
	$(GO) test -race -run '^TestRunSweep|^TestFacadeEngineSweepRegistry$$' ./internal/sim .

# Distributed-farm smoke under -race: an in-process coordinator, three
# HTTP workers, and two injected crashes (one pre-checkpoint, one
# post-checkpoint) must still assemble a grid identical to serial
# RunSweep — now also covering speculative duplicate leases
# (first-result-wins), checkpoint-relay segment assembly, journal
# crash/replay, and content-addressed cache hits; plus the checkpoint
# golden-equivalence (its -short set includes theta-wfp-s4/Weighted_LP,
# the LP run a restore at every event must reproduce), version-skew and
# pinned-wire-bytes tests.
farm-smoke:
	$(GO) test -race -short -run '^TestFarm|^TestRecipeKey$$' ./internal/farm
	$(GO) test -race -short -run '^TestGoldenCheckpointEquivalence$$|^TestCheckpointRoundTrip' ./internal/sim
	$(GO) test -race -run '^TestDecodeVersionSkew$$|^TestEncodeDecodeRoundTrip$$|^TestWireFormatPinned$$' ./internal/checkpoint

# Fuzz the trace parsers, the snapshot decoder (which takes bytes off
# the network), the dead-window shortcut (skipped answer == solved
# answer, over generated windows, on every registered backend), the GA's
# termination certificate (certified stop == full run, same windows) and
# the ranked planner
# (prefiltered, best-first PlanRanked == reference Plan over Sorted, over
# generated machines and queues ranked at the window as their front, one
# pass and several carried) for 30s per target (CI smoke; the seed
# corpora run in every plain `go test` too). The decoder's seed is a
# 1.5 KB snapshot: at the default 60s of minimization per new input its
# budget buys a few hundred execs, hence -fuzzminimizetime.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzParseCSV$$' -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzParseSWF$$' -fuzztime 30s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzDeadWindowSkip$$' -fuzztime 30s
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzGACertifiedStop$$' -fuzztime 30s
	$(GO) test ./internal/backfill -run '^$$' -fuzz '^FuzzPlanRankedMatchesPlan$$' -fuzztime 30s

# Coverage gate: internal/cluster + internal/sched + internal/lp +
# internal/solver + internal/queue + internal/backfill statement coverage
# must not drop below the floor (cluster/sched floor captured with the
# N-dimension harness; lp joined with the solver refactor at 95%+ package
# coverage; solver joined with the zoo — greedy, portfolio; queue
# joined when it began to carry its order from one scheduling pass to the
# next; backfill when its planner began to reject jobs on flat keys).
COVER_FLOOR = 75.0
cover-gate:
	$(GO) test -short -coverprofile=cover.out ./internal/cluster ./internal/sched ./internal/lp ./internal/solver ./internal/queue ./internal/backfill
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "cluster+sched+lp+solver+queue+backfill coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
	  { echo "FAIL: coverage fell below the $(COVER_FLOOR)% floor"; exit 1; }

lint: fmt vet

# staticcheck is optional locally (CI installs it); skip with a hint when
# the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; install with: go install honnef.co/go/tools/cmd/staticcheck@latest"; \
	fi

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean -testcache
