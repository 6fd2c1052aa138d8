GO ?= go

.PHONY: all build fmt vet lint test race bench loc profile perfbench bench-pairs live-smoke obs-smoke shard-smoke rack-smoke hier-smoke claims-smoke examples-smoke golden golden-check

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

# loc prints the simplicity measure ROADMAP.md tracks: the lines of every
# tracked Go file except tests and perfbench/.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs cat | wc -l

# live-smoke runs the live goroutine runtime's rate-limited smoke tests:
# the shared channel and the dispatch path (jbsq2, 16x1, 4x4, 1x16:random2)
# end to end in ~100 ms windows, asserting completion counts and the
# dispatch replay only, so it stays green on noisy or single-core machines.
# CI's test step runs every TestLive* (a superset) without -short.
live-smoke:
	$(GO) test -short -run 'TestLive' -v ./internal/live

# shard-smoke runs a short sharded figCluster under the race detector: the
# full harness path (budgeted fan-out → sharded cluster.Run → conservative
# pdes rounds) with cross-shard traffic on every policy × mode cell, run
# twice to smoke run-to-run determinism. CI's race job runs it as part of
# go test -race ./...; this target runs it alone.
shard-smoke:
	$(GO) test -race -run '^TestShardSmoke$$' -v ./internal/core

# rack-smoke runs the rack figure at its full 1000-node width (reduced
# completion counts) under the race detector, generated twice and compared
# cell by cell: the depth-indexed balancer's determinism at the scale that
# motivated it. CI's race job runs it as part of go test -race ./...; this
# target runs it alone.
rack-smoke:
	$(GO) test -race -run '^TestRackSmoke$$' -v ./internal/core

# hier-smoke runs the two-tier figure at its full 1000-node width (reduced
# completion counts) under the race detector, generated twice and compared
# cell by cell: the global balancer stacked over eight rack balancers —
# including the degraded-rack and rack-failover studies — must stay
# deterministic run to run. CI's race job runs it as part of
# go test -race ./...; this target runs it alone.
hier-smoke:
	$(GO) test -race -run '^TestHierSmoke$$' -v ./internal/core

# claims-smoke regenerates every figure at quick scale, except the
# wall-clock live figure, and fails when any paper claim misses
# (rpcvalet-bench exits 3). Every figure runs at a fixed seed and its result
# does not depend on the worker count, so the verdicts are the same on any
# host. The list follows core.FigureIDs (TestRegistryComplete pins it).
CLAIM_FIGURES = 2a,2b,2c,6,7a,7b,7c,8,9,table1,ablation-outstanding,ablation-dispatcher,ablation-rss,ablation-policy,anatomy,burst,cluster,hier,policy,rack,transient

claims-smoke:
	$(GO) run ./cmd/rpcvalet-bench -quick -fig $(CLAIM_FIGURES)

# examples-smoke runs every library-facade walkthrough under examples/ (about
# 5 s in total on 2 cores) and fails when any of them exits non-zero, so a
# facade change that breaks an example is caught without reading its output.
EXAMPLES = $(sort $(wildcard examples/*/main.go))

examples-smoke:
	@set -e; for f in $(EXAMPLES); do \
		d=$$(dirname $$f); echo "== $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

# golden writes scripts/golden.sha256: one SHA-256 per deterministic output
# (every non-live -quick figure in text and JSON, rpcvalet-sim and
# rpcvalet-cluster runs with their trace captures, qtheory sweeps and every
# example's stdout), wall times stripped. golden-check reruns them (about
# 35 s on 2 cores) and fails on any digest that moved. See scripts/golden.sh.
golden:
	bash scripts/golden.sh write

golden-check:
	bash scripts/golden.sh check

# obs-smoke proves the observability endpoints end to end: it starts
# rpcvalet-live -dispatch 4x4 with -obs, scrapes /metrics and /healthz while the run is in
# flight, and asserts Prometheus text format plus a nonzero completed
# counter. See scripts/obs_smoke.sh.
obs-smoke:
	./scripts/obs_smoke.sh

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

# bench-pairs A/Bs the benchmark: PARENT (any git revision) against the
# working tree, in N alternating pairs of WORKLOAD runs, and prints each
# end-to-end metric's medians and pair wins (scripts/bench_pairs.sh), e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=node-herd N=10
PARENT ?= HEAD
WORKLOAD ?= node-herd
N ?= 10

bench-pairs:
	bash scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(N)
