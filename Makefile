# energysched build/test/bench entry points.
#
# The kernel benchmarks named in GATED_BENCHES form the performance
# contract of the numeric core; their baseline lives in
# BENCH_kernels.json and is enforced by cmd/benchgate (>10% time/op or
# allocs/op regression fails `make bench-check` and the CI `bench`
# job). After an intentional kernel change, refresh the baseline with
# `make bench` and commit the JSON alongside the change.

GO ?= go

# The named kernel benchmarks guarded by the regression gate, plus the
# cache-hit paths — the server's, the router's own response cache and
# the router's proxied hop to a warm backend — whose allocs/op catch any
# extra decode or JSON scan added to a hit.
GATED_BENCHES = BenchmarkConvexSolve64Tasks|BenchmarkChainFirstHeuristic64Tasks|BenchmarkTriCritBestOf12|BenchmarkSimplexSolve|BenchmarkDiscreteExact12Tasks|BenchmarkAblation_WaterfillChain32|BenchmarkSimulateChain64|BenchmarkCampaign1k|BenchmarkCampaignFaultFree1k|BenchmarkCampaignFaultFree1kHeapOnly|BenchmarkSweepAllClasses|BenchmarkCampaignChunked1M|BenchmarkCampaignAdaptive|BenchmarkContinuousSolveSP24|BenchmarkContinuousSolveNonSP24|BenchmarkSPDecompose64Tasks|Benchmark_ServerSolveCacheHit|Benchmark_RouterSolveCacheHit|Benchmark_RouterSolveBackendHit

BENCH_FLAGS = -run='^$$' -bench='^($(GATED_BENCHES))$$' -benchmem -benchtime=10x -count=5

# Relative regression tolerances for the gate. The committed baseline
# is measured by `make bench` on the machine of record; when checking
# on substantially different hardware, widen the time tolerance
# (allocs/op transfers across machines and stays strict):
#   make bench-check BENCHGATE_TIME_TOL=0.5
BENCHGATE_TIME_TOL ?= 0.10
BENCHGATE_ALLOC_TOL ?= 0.10

.PHONY: build test race bench bench-check fmt vet simgolden fuzzsmoke loadsmoke clustersmoke chaossmoke jobsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# simgolden reruns the simulator's golden-digest, fast-path equivalence
# and chunked-campaign tests with the fast path off, every trial forced
# through the full trial kernel, so that path is also held to the
# pinned digests (internal/sim/golden_test.go).
simgolden:
	ENERGYSCHED_SIM_NO_FASTPATH=1 $(GO) test -count=1 -run 'Golden|Equivalence|Chunked' ./internal/sim

# fuzzsmoke runs every fuzz target for FUZZTIME each, one after the
# other: the one list CI's fuzz smoke step runs.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	FuzzUnmarshalInstance:./internal/core \
	FuzzSolveHandler:./internal/server \
	FuzzBatchHandler:./internal/server \
	FuzzSimulateHandler:./internal/server \
	FuzzSweepHandler:./internal/server \
	FuzzParseTrace:./internal/loadgen \
	FuzzRouterProxy:./internal/router \
	FuzzParseChaosSchedule:./internal/chaos \
	FuzzParseCheckpoint:./internal/jobs

fuzzsmoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} $${t#*:}"; \
		$(GO) test -run='^$$' -fuzz="^$${t%%:*}$$" -fuzztime=$(FUZZTIME) "$${t#*:}"; \
	done

# loadsmoke replays the committed 10s reference trace against an
# in-process server at real-time speed under -race; fails on any 5xx
# or a per-kind p99 above the bound in loadsmoke_test.go.
loadsmoke:
	LOADSMOKE_FULL=1 $(GO) test -race -run TestLoadSmoke -v ./internal/loadgen

# clustersmoke replays the same reference trace through an energyrouter
# fronting three in-process backends at real-time speed under -race;
# fails on any 5xx, a response diverging from the single-node answer, a
# cache hit rate below the single node's, or a per-kind p99 above 2×
# the single-node bound (clustersmoke_test.go).
clustersmoke:
	CLUSTERSMOKE_FULL=1 $(GO) test -race -run TestClusterSmoke -v ./internal/router

# chaossmoke co-replays the committed reference trace with the
# committed reference fault schedule (crashes, partitions, corruption,
# latency ramps, connection kills) through the same 3-backend cluster
# at real-time speed under -race; fails on any caller-visible 5xx, a
# p99 above 2× the fault-free cluster bound, an undrained cluster, or
# a response diverging from the fault-free answer (chaossmoke_test.go).
chaossmoke:
	CHAOSSMOKE_FULL=1 $(GO) test -race -run TestChaosSmoke -v ./internal/chaos

# jobsmoke is the crash-safety gate for campaign jobs: it builds the
# real energyschedd with -race, runs one campaign uninterrupted for
# reference, SIGKILLs a second daemon mid-campaign (no drain), restarts
# it on the same -state-dir, and fails unless the resumed job finishes
# byte-identical to the reference (jobsmoke_test.go).
jobsmoke:
	JOBSMOKE_FULL=1 $(GO) test -race -run TestJobSmoke -v -timeout 15m ./cmd/energyschedd

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# bench runs the gated kernel benchmarks and refreshes the committed
# baseline BENCH_kernels.json.
bench:
	$(GO) test $(BENCH_FLAGS) . | tee bench.out
	$(GO) run ./cmd/benchgate -update -in bench.out -baseline BENCH_kernels.json
	@rm -f bench.out

# bench-check runs the same benchmarks and fails on >10% time/op or
# allocs/op regression against the committed baseline.
bench-check:
	$(GO) test $(BENCH_FLAGS) . > bench.out
	$(GO) run ./cmd/benchgate -in bench.out -baseline BENCH_kernels.json \
		-time-tol $(BENCHGATE_TIME_TOL) -alloc-tol $(BENCHGATE_ALLOC_TOL)
	@rm -f bench.out
