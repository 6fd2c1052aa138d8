#!/usr/bin/env bash
# mutants.sh — check that the tests kill every hand mutant in a list.
#
#   scripts/mutants.sh [LIST]   # make mutants; LIST defaults to scripts/mutants.tsv
#
# Each entry of LIST (see the header of scripts/mutants.tsv) names a file,
# a text in it, the text that replaces it, and the go test arguments whose
# tests must then fail. The script copies the working tree (tracked and
# untracked files, ignored ones left out) into a temporary directory, so
# uncommitted changes are checked too and the checkout is never edited.
# It first runs every entry's tests on the unmutated copy, which must pass.
# Then, one entry at a time, it applies the mutant, runs its tests, and
# restores the file. It prints "killed" or "SURVIVED" per entry and exits
# 1 if a mutant survived, an old text does not occur exactly once, or a
# mutant does not build. The 19 entries take about 2 minutes on 2 cores.
set -euo pipefail
set -f # the go test arguments hold regexps, not globs

root=$(git rev-parse --show-toplevel)
list=${1:-$root/scripts/mutants.tsv}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
work=$tmp/tree
mkdir -p "$work"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf -) | tar -xf - -C "$work"

# unescape TEXT turns \n and \t into a newline and a tab.
unescape() {
	local s=${1//\\n/$'\n'}
	printf '%s' "${s//\\t/$'\t'}"
}

# gotest ARGS... runs go test in the copy, its output in $tmp/log.
gotest() { (cd "$work" && go test -count=1 "$@") >"$tmp/log" 2>&1; }

entries=$(grep -v '^#' "$list" | grep -v '^[[:space:]]*$')

# Every distinct test selection must pass before any mutant runs.
while IFS=$'\t' read -r _ _ _ _ args; do
	echo "$args"
done <<<"$entries" | sort -u >"$tmp/selections"
while IFS= read -r args; do
	# shellcheck disable=SC2086 # the arguments are word-split on purpose
	if ! gotest $args; then
		echo "mutants: unmutated tree fails go test $args" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
done <"$tmp/selections"

bad=0 total=0
while IFS=$'\t' read -r name file old new args; do
	total=$((total + 1))
	old=$(unescape "$old")
	new=$(unescape "$new")
	path=$work/$file
	content=$(
		cat "$path"
		echo x
	)
	content=${content%x}
	rest=${content//"$old"/}
	if [ $(((${#content} - ${#rest}) / ${#old})) -ne 1 ]; then
		echo "INVALID  $name: the old text does not occur exactly once in $file"
		bad=$((bad + 1))
		continue
	fi
	cp "$path" "$tmp/orig"
	printf '%s' "${content/"$old"/"$new"}" >"$path"
	# shellcheck disable=SC2086
	if gotest $args; then
		echo "SURVIVED $name ($args)"
		bad=$((bad + 1))
	elif grep -q 'build failed\|setup failed' "$tmp/log"; then
		echo "INVALID  $name: the mutant does not build"
		bad=$((bad + 1))
	else
		echo "killed   $name"
	fi
	cp "$tmp/orig" "$path"
done <<<"$entries"

echo "mutants: $((total - bad)) of $total killed"
[ "$bad" -eq 0 ]
