GO ?= go

.PHONY: all build fmt vet lint test race bench bench-json bench-diff profile perfbench live-smoke obs-smoke shard-smoke rack-smoke hier-smoke

# Pinned so CI and local runs agree on what "clean" means.
STATICCHECK_VERSION = 2025.1.1

all: build test

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs staticcheck when it is on PATH and explains how to get it when it
# isn't (offline builds must not fail for lack of a linter).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; run:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

test: fmt vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# live-smoke runs the live goroutine runtime's rate-limited smoke tests:
# every queue shape end to end in ~100 ms windows, asserting completion
# counts only, so it stays green on noisy or single-core machines.
live-smoke:
	$(GO) test -short -run 'TestLive' -v ./internal/live

# shard-smoke runs a short sharded figCluster under the race detector: the
# full harness path (budgeted fan-out → sharded cluster.Run → conservative
# pdes rounds) with cross-shard traffic on every policy × mode cell, run
# twice to smoke run-to-run determinism. CI's race job runs it.
shard-smoke:
	$(GO) test -race -run '^TestShardSmoke$$' -v ./internal/core

# rack-smoke runs the rack figure at its full 1000-node width (reduced
# completion counts) under the race detector, generated twice and compared
# cell by cell: the depth-indexed balancer's determinism at the scale that
# motivated it. CI's race job runs it.
rack-smoke:
	$(GO) test -race -run '^TestRackSmoke$$' -v ./internal/core

# hier-smoke runs the two-tier figure at its full 1000-node width (reduced
# completion counts) under the race detector, generated twice and compared
# cell by cell: the global balancer stacked over eight rack balancers —
# including the degraded-rack and rack-failover studies — must stay
# deterministic run to run. CI's race job runs it.
hier-smoke:
	$(GO) test -race -run '^TestHierSmoke$$' -v ./internal/core

# obs-smoke proves the observability endpoints end to end: it starts
# rpcvalet-live with -obs, scrapes /metrics and /healthz while the run is in
# flight, and asserts Prometheus text format plus a nonzero completed
# counter. See scripts/obs_smoke.sh.
obs-smoke:
	./scripts/obs_smoke.sh

# bench-json emits machine-readable benchmark results (BENCH_*.json) for the
# performance trajectory: the engine's scheduling hot path, the
# figure-regeneration benches that exercise the dispatch-plan,
# transient-telemetry, cluster, anatomy, and live layers end to end, the
# sharded-engine (nodes × shards) throughput matrix, the live runtime's
# wall-clock shape comparison, the rack-scale balancer decision engine
# (ns per 1000-node policy pick plus end-to-end 1000-node runs), and the
# two-tier datacenter path (hier figure regeneration plus end-to-end
# 1000-node serial and racks-as-shards runs). CI uploads these as artifacts.
bench-json:
	$(GO) test -run='^$$' -bench='^BenchmarkEngineSchedule$$' -benchmem ./internal/sim \
		| $(GO) run ./cmd/benchjson > BENCH_engine.json
	$(GO) test -run='^$$' -bench='^(BenchmarkFigPolicyPlans|BenchmarkFigTransient|BenchmarkFigCluster|BenchmarkFigLive|BenchmarkFigAnatomy)$$' -benchtime=1x . \
		| $(GO) run ./cmd/benchjson > BENCH_figures.json
	$(GO) test -run='^$$' -bench='^BenchmarkClusterSharded$$' -benchtime=5x ./internal/cluster \
		| $(GO) run ./cmd/benchjson > BENCH_cluster.json
	$(GO) test -run='^$$' -bench='^BenchmarkLiveShapes$$' -benchtime=1x ./internal/live \
		| $(GO) run ./cmd/benchjson > BENCH_live.json
	{ $(GO) test -run='^$$' -bench='^BenchmarkTraceOverhead$$' -benchmem ./internal/machine; \
	  $(GO) test -run='^$$' -bench='^BenchmarkLiveTraceOverhead$$' -benchtime=1x ./internal/live; } \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json
	$(GO) test -run='^$$' -bench='$(HOTPATH_BENCHES)' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_machine.json
	{ $(GO) test -run='^$$' -bench='^BenchmarkPolicyPick$$' -benchmem ./internal/cluster; \
	  $(GO) test -run='^$$' -bench='^BenchmarkClusterRack$$' -benchtime=2x ./internal/cluster; } \
		| $(GO) run ./cmd/benchjson > BENCH_rack.json
	{ $(GO) test -run='^$$' -bench='^BenchmarkFigHier$$' -benchtime=1x .; \
	  $(GO) test -run='^$$' -bench='^BenchmarkClusterHier$$' -benchtime=2x ./internal/cluster; } \
		| $(GO) run ./cmd/benchjson > BENCH_hier.json

# The hot-path benchmark set: steady-state per-request cost (allocs/op reads
# as allocations per simulated request) and simulator throughput (sim_mrps).
HOTPATH_BENCHES = ^(BenchmarkMachineSteadyState|BenchmarkClusterSteadyState|BenchmarkMachineThroughput|BenchmarkSweepParallel)$$

# bench-diff regenerates the hot-path benchmark set and compares it against
# the committed BENCH_machine.json snapshot, flagging any directional metric
# (ns/op, B/op, allocs/op, sim_mrps) that moved past the threshold. Override
# OLD/NEW to diff arbitrary snapshots, THRESHOLD to tune sensitivity.
BENCH_DIFF_OLD ?= BENCH_machine.json
BENCH_DIFF_NEW ?= /tmp/BENCH_machine.new.json
BENCH_DIFF_THRESHOLD ?= 20

bench-diff:
	$(GO) test -run='^$$' -bench='$(HOTPATH_BENCHES)' -benchmem . \
		| $(GO) run ./cmd/benchjson > $(BENCH_DIFF_NEW)
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_DIFF_THRESHOLD) $(BENCH_DIFF_OLD) $(BENCH_DIFF_NEW)
	$(GO) test -run='^$$' -bench='^BenchmarkPolicyPick$$' -benchmem ./internal/cluster \
		| $(GO) run ./cmd/benchjson > /tmp/BENCH_rack.new.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_DIFF_THRESHOLD) BENCH_rack.json /tmp/BENCH_rack.new.json
	$(GO) test -run='^$$' -bench='^BenchmarkClusterHier$$' -benchtime=2x ./internal/cluster \
		| $(GO) run ./cmd/benchjson > /tmp/BENCH_hier.new.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_DIFF_THRESHOLD) BENCH_hier.json /tmp/BENCH_hier.new.json

# profile captures CPU and heap profiles of the heaviest end-to-end figure
# (figCluster) and prints the top flat-cost functions of each — the data
# behind EXPERIMENTS.md's hot-path anatomy study.
PROFILE_DIR ?= /tmp/rpcvalet-profile

profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run='^$$' -bench='^BenchmarkFigCluster$$' -benchtime=1x \
		-o $(PROFILE_DIR)/rpcvalet.test \
		-cpuprofile $(PROFILE_DIR)/cpu.prof -memprofile $(PROFILE_DIR)/mem.prof .
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(PROFILE_DIR)/mem.prof

# perfbench builds and runs the benchmark BENCHMARK.json declares
# (perfbench/run.sh), passing ARGS through, e.g.
#   make perfbench ARGS="--workload dc-1000-sharded --seed 42 --seconds 30 --trace 0"
ARGS ?=

perfbench:
	bash perfbench/run.sh $(ARGS)
