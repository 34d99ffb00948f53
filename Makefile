# BBSched build/test/bench entry points — the same commands CI runs.

GO ?= go

.PHONY: all build test test-full race bench bench-smoke bench-solver bench-module bench-digests sweep-smoke farm-smoke examples-smoke fuzz-smoke cover-gate lint fmt vet staticcheck clean

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

# One pass of every package micro-benchmark (one iteration each): they
# build and run, and nothing gates their numbers. They are for local
# profiling — raise -benchtime on one of them. The gated benchmark list
# is BENCHMARK.json's workloads (bench-digests below, bench/run.sh).
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

# Guard the parallel RunSweep driver against races and nondeterminism:
# tiny method × seed grids (2 × 2) under -race, parallel vs serial.
sweep-smoke:
	$(GO) test -race -run '^TestRunSweep|^TestFacadeEngineSweepRegistry$$' ./internal/sim .

# Run each example program once. go build ./... only compiles them, so
# an API change that breaks one at run time (the facade in bbsched.go is
# what most of them call) fails here instead.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Distributed-farm smoke under -race: an in-process coordinator, three
# HTTP workers, and two injected crashes (one pre-checkpoint, one
# post-checkpoint) must still assemble a grid identical to serial
# RunSweep — now also covering speculative duplicate leases
# (first-result-wins), checkpoint-relay segment assembly, journal
# crash/replay, content-addressed cache hits, the raw-checkpoint route
# (TestFarmCheckpointRoute: bad query, old JSON body, empty, stale and
# over-cap uploads), per-worker recipe reuse
# (TestFarmWorkerBuildsEachRecipeOnce), the coordinator's state machine
# driven at chosen instants with its journal replayed
# (TestFarmMachineTransitions) and a refused journal write
# (TestFarmJournalWriteFailure); plus the checkpoint
# golden-equivalence (its -short set includes theta-wfp-s4/Weighted_LP,
# the LP run a restore at every event must reproduce), version-skew,
# pinned-wire-bytes and every-bit-flip (the CRC-32C trailer) tests.
farm-smoke:
	$(GO) test -race -short -run '^TestFarm|^TestRecipeKey$$' ./internal/farm
	$(GO) test -race -short -run '^TestGoldenCheckpointEquivalence$$|^TestCheckpointRoundTrip' ./internal/sim
	$(GO) test -race -run '^TestDecodeVersionSkew$$|^TestEncodeDecodeRoundTrip$$|^TestWireFormatPinned$$|^TestDecodeRejectsEveryBitFlip$$' ./internal/checkpoint

# Fuzz the trace parsers, the snapshot decoder (which takes bytes off
# the network), the dead-window shortcuts (skipped answer == solved
# answer, over generated windows, on every registered backend; and the
# Plugin's unasked answer == the answer with every registered method
# asked, over the same windows aged past the starvation bound, ranked in
# order and on the engine's unordered Pass with the EASY plan), the GA's
# termination certificate (certified stop == full run, same windows), the
# ranked planner
# (prefiltered, best-first PlanRanked == reference Plan over Sorted, over
# generated machines and queues ranked at the window as their front, one
# pass and several carried), the queue's tail tournament (its winner ==
# the brute-force best job behind the front, over clocks that advance,
# repeat and go back), the backfill gather's cells (what a pass keeps and
# hands out == a flat scan of Sorted, over jobs, free totals and EASY cuts
# at the node-class and span-class edges) and the engine's unordered
# window (pass by pass ==
# the reference engine that orders every window and writes every age,
# across a checkpoint) and the snapshot restore (a snapshot with mutated
# containers is refused or runs to the end) for 30s per target (CI smoke; the seed
# corpora run in every plain `go test` too). The decoder's seed is a
# 1.5 KB snapshot: at the default 60s of minimization per new input its
# budget buys a few hundred execs, hence -fuzzminimizetime. A mutated
# snapshot fails its CRC-32C almost always, so FuzzDecodeSealed re-seals
# each input and fuzzes the parser behind the checksum.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzParseCSV$$' -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzParseSWF$$' -fuzztime 30s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzDecodeSealed$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzDeadWindowSkip$$' -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecideDeadWindow$$' -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecideDeadWindowOnPass$$' -fuzztime 30s
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzGACertifiedStop$$' -fuzztime 30s
	$(GO) test ./internal/backfill -run '^$$' -fuzz '^FuzzPlanRankedMatchesPlan$$' -fuzztime 30s
	$(GO) test ./internal/queue -run '^$$' -fuzz '^FuzzTailTournament$$' -fuzztime 30s
	$(GO) test ./internal/queue -run '^$$' -fuzz '^FuzzGatherCells$$' -fuzztime 30s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzLazyWindow$$' -fuzztime 30s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 30s -fuzzminimizetime 1s

# Coverage gate: internal/cluster + internal/sched + internal/lp +
# internal/solver + internal/queue + internal/backfill + internal/trace +
# internal/checkpoint + internal/registry statement coverage must not drop
# below the floor (cluster/sched floor captured with the N-dimension
# harness; lp joined with the solver
# refactor at 95%+ package coverage; solver joined with the zoo — greedy,
# portfolio; queue joined when it began to carry its order from one
# scheduling pass to the next; backfill when its planner began to reject
# jobs on flat keys; trace, which parses outside input, when its batch
# readers became wrappers over the streaming decoders; checkpoint, which
# decodes snapshots off the network, at 100% when its format went to
# version 4; registry, which every method is built through, at 100% when
# its methods came to one builder over the machine's objective list).
COVER_FLOOR = 75.0
cover-gate:
	$(GO) test -short -coverprofile=cover.out ./internal/cluster ./internal/sched ./internal/lp ./internal/solver ./internal/queue ./internal/backfill ./internal/trace ./internal/checkpoint ./internal/registry
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "cluster+sched+lp+solver+queue+backfill+trace+checkpoint+registry coverage: $$total% (floor $(COVER_FLOOR)%)"; \
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
