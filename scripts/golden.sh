#!/usr/bin/env bash
# golden.sh — digest the simulators' deterministic outputs and compare them
# against the committed digest file.
#
#   scripts/golden.sh write   # make golden: rewrite scripts/golden.sha256
#   scripts/golden.sh check   # make golden-check: fail on any digest change
#
# It builds every command and example of this checkout into a temporary
# directory, runs each output named in the table below, strips wall times
# ("(0.2s)" in rpcvalet-bench headers), appends the exit status, and takes
# one SHA-256 per output. "check" prints every output whose digest moved,
# or that is missing from either side, and exits 1 if any did. A change
# that means to move outputs reruns "write" and says so in CHANGES.md.
#
# The digests are of amd64 output: Go may fuse multiply-adds on other
# architectures, which moves the last bits of some floats.
set -euo pipefail

mode=${1:-check}
case $mode in
write | check) ;;
*)
	echo "usage: $0 write|check" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
file=$root/scripts/golden.sha256
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
mkdir -p "$bin"
(cd "$root" && go build -o "$bin/" ./cmd/... ./examples/...)

# The figures rpcvalet-bench regenerates deterministically: every one but
# the wall-clock live figure (the Makefile's CLAIM_FIGURES).
figures="2a 2b 2c 6 7a 7b 7c 8 9 table1 ablation-outstanding ablation-dispatcher ablation-rss ablation-policy anatomy burst cluster hier policy rack transient"

# digest NAME CMD... runs CMD in a scratch directory and prints
# "SHA256  NAME" over its stripped stdout, its exit status and any file the
# command wrote there (trace JSONL captures).
digest() {
	local name=$1 status=0
	shift
	local dir=$tmp/run/$name
	mkdir -p "$dir"
	(cd "$dir" && "$@" >stdout 2>/dev/null) || status=$?
	{
		sed -E 's/\([0-9]+\.[0-9]+s\)//' "$dir/stdout"
		echo "exit=$status"
		for f in "$dir"/*.jsonl; do
			[ -e "$f" ] || continue
			echo "== $(basename "$f")"
			cat "$f"
		done
	} | sha256sum | awk -v n="$name" '{print $1 "  " n}'
}

sim=(-warmup 1000 -measure 20000)
outputs() {
	for f in $figures; do
		digest "fig-$f-text" "$bin/rpcvalet-bench" -quick -fig "$f"
		digest "fig-$f-json" "$bin/rpcvalet-bench" -quick -fig "$f" -format json
	done
	digest fig-cluster-shards4 "$bin/rpcvalet-bench" -quick -fig cluster -shards 4

	digest sim-1x16-herd "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 1x16 -workload herd -rate 25
	digest sim-4x4-herd "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 4x4 -workload herd -rate 25
	digest sim-16x1-herd-json "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 16x1 -workload herd -rate 20 -format json
	digest sim-sw-herd "$bin/rpcvalet-sim" "${sim[@]}" -dispatch sw -workload herd -rate 15
	digest sim-1x16-overload "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 1x16 -workload herd -rate 40
	digest sim-jbsq2-masstree "$bin/rpcvalet-sim" "${sim[@]}" -dispatch jbsq2 -workload masstree -rate 5.5
	digest sim-random2-masstree-json "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 1x16:random2 -workload masstree -rate 5.5 -format json
	digest sim-8x2-exp "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 8x2:first-available -workload exp -rate 25
	digest sim-1x16-degraded "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 1x16 -workload herd -rate 25 -degrade 'x1.2,pause@20us+10us' -timeline
	digest sim-tail-trace "$bin/rpcvalet-sim" "${sim[@]}" -dispatch 4x4 -workload herd -rate 28 -tail 10 -trace-jsonl sim.jsonl -trace-sample 4

	digest cluster-default "$bin/rpcvalet-cluster"
	digest cluster-default-json "$bin/rpcvalet-cluster" -format json
	digest cluster-racks2 "$bin/rpcvalet-cluster" -racks 2
	digest cluster-racks2-shards2 "$bin/rpcvalet-cluster" -racks 2 -shards 2
	digest cluster-racks2-shards2-timeline "$bin/rpcvalet-cluster" -racks 2 -shards 2 -timeline
	digest cluster-shards4 "$bin/rpcvalet-cluster" -shards 4
	digest cluster-shards4-sample "$bin/rpcvalet-cluster" -shards 4 -sample 700
	digest cluster-degraded "$bin/rpcvalet-cluster" -racks 2 -global-sample 1000 -sample 700 \
		-degrade 'rack1:x1.5,pause@10us+5us;0:x2' -detail -timeline
	digest cluster-tail-trace "$bin/rpcvalet-cluster" -tail 10 -trace-jsonl cluster.jsonl -trace-sample 64

	digest qtheory-1x16-exp "$bin/qtheory" -q 1 -u 16 -dist exp -sweep
	digest qtheory-16x1-gev "$bin/qtheory" -q 16 -u 1 -dist gev -sweep

	for e in "$root"/examples/*/; do
		e=$(basename "$e")
		digest "example-$e" "$bin/$e"
	done
}

if [ "$mode" = write ]; then
	{
		echo "# SHA-256 of each deterministic output scripts/golden.sh names, wall"
		echo "# times stripped, exit status appended. Digests are of amd64 output."
		outputs
	} >"$file"
	echo "golden: wrote $(grep -vc '^#' "$file") digests to scripts/golden.sha256"
	exit 0
fi

outputs >"$tmp/now"
if diff <(grep -v '^#' "$file" | sort -k2) <(sort -k2 "$tmp/now") >"$tmp/diff"; then
	echo "golden: $(wc -l <"$tmp/now") outputs match scripts/golden.sha256"
	exit 0
fi
echo "golden: outputs differ from scripts/golden.sha256 (< committed, > this tree):"
cat "$tmp/diff"
exit 1
