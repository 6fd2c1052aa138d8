#!/usr/bin/env bash
# bench_pairs.sh — A/B the benchmark between a parent revision and the
# working tree, in alternating pairs.
#
#   scripts/bench_pairs.sh PARENT WORKLOAD [PAIRS [SECONDS [SEED]]]
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=node-herd N=10
#
# It checks PARENT out into a temporary git worktree, then runs
# `bash perfbench/run.sh --workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0` there and in the working tree PAIRS times (defaults 10, 30 s
# as the manifest's run_seconds, seed 42), alternating which side runs
# first so a drift in the host's speed lands on both. For every end-to-end
# metric BENCHMARK.json declares it prints each side's median, the
# change's median over the parent's and how many pairs each side won in the
# metric's better direction, then every pair's values. Each side builds and
# caches under its own .bench_build/; nothing under perfbench/ is edited,
# and the worktree is removed on exit. A run that fails stops the script.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 PARENT WORKLOAD [PAIRS [SECONDS [SEED]]]" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=${3:-10} secs=${4:-30} seed=${5:-42}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/parent" "$parent"

# run SIDE DIR appends the JSON result line of one run in DIR to SIDE.jsonl.
run() {
	local out
	out=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$secs" --trace 0 2>/dev/null | tail -n 1)
	case $out in
	'{'*) echo "$out" >>"$tmp/$1.jsonl" ;;
	*)
		echo "bench_pairs: $1 run printed no result" >&2
		exit 1
		;;
	esac
}

for i in $(seq "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "pair $i/$pairs: $side" >&2
		if [ "$side" = parent ]; then run parent "$tmp/parent"; else run change "$root"; fi
	done
done

echo "# $workload: $pairs pairs, parent $(git -C "$root" rev-parse --short "$parent") vs working tree, seed $seed, ${secs}s per run"
printf '%-16s %14s %14s %8s %12s\n' metric parent change ratio "wins c:p"
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json")
# values NAME prints each pair's parent and change value of NAME, a pair a
# line.
values() {
	paste <(jq -r ".metrics.\"$1\".value" "$tmp/parent.jsonl") \
		<(jq -r ".metrics.\"$1\".value" "$tmp/change.jsonl")
}
echo "$metrics" | while read -r name better; do
	values "$name" | awk -v name="$name" -v better="$better" '
		function median(a, n,   i, j, t) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
			return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
		}
		{
			p[NR] = $1; c[NR] = $2
			if (better == "lower" ? $2 < $1 : $2 > $1) cw++
			else if ($2 != $1) pw++
		}
		END {
			mp = median(p, NR); mc = median(c, NR)
			printf "%-16s %14.6g %14.6g %8.4f %7d:%d\n", name, mp, mc, mp ? mc / mp : 0, cw, pw
		}'
done

echo "# pairs in run order, parent → change"
echo "$metrics" | while read -r name _; do
	printf '%-16s' "$name"
	values "$name" | awk '{ printf " %.6g→%.6g", $1, $2 } END { print "" }'
done
