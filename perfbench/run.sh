#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; arguments
# go to the benchmark. From the repository root:
#
#   bash perfbench/run.sh --workload node-herd --seed 42 --seconds 6 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own state stay under
# .bench_build in the checkout; nothing is fetched over the network.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
