#!/usr/bin/env bash
# The pinned-benchmark regression gate (make bench-gate). It measures the
# pins of two trees on the same machine in the same minutes: the commit
# BENCH_baseline.json names ("commit"), exported with git archive, and the
# working tree. Both trees' test binaries are built with the same command,
# then every package's pins run alternately, one tree after the other, for
# ten rounds at TIME each, with -test.benchmem, and cmd/benchjson fails the
# gate when a pin's median ns/op over the head rounds is more than 25% above
# its median over the base rounds, or its median allocs/op is above the
# highest of the base rounds': most pins read one allocation count in every
# round, so there one more per call is a change, not noise (a ResNet-8
# iteration's count moves, 13-22, and is held to the top of that spread).
# B/op does not repeat and stays informational. The ns/op recorded in BENCH_baseline.json are printed
# beside the head's medians, for information only.
#
# Run from the repository root, with the Makefile's variables in the
# environment: GO, PKGS, PATTERN, PINS, TIME.
set -euo pipefail
# Ten rounds of two trees at the Makefile's TIME (200ms) keep the gate to
# about four minutes on two CPUs. On a shared two-CPU box a pin's round-to-
# round range is 5-37% at any benchtime, so the median of ten short rounds
# holds as tight as that of five at 1s, in less than half the time.
rounds=10
top=$(pwd)
dir="$top/.bench-gate"
base=$(sed -n 's/^[[:space:]]*"commit":[[:space:]]*"\([0-9a-f]*\)".*/\1/p' BENCH_baseline.json)
if [ -z "$base" ]; then
	echo "bench-gate: BENCH_baseline.json names no commit" >&2
	exit 1
fi
echo "bench-gate: $rounds alternating rounds of the pins at $TIME, baseline commit $base against the working tree"
rm -rf "$dir"
mkdir -p "$dir/base"
# The exported tree goes when the gate ends: the Makefile's source counts
# (loc, surface, unused) walk every .go file under the root.
trap 'rm -rf "$dir/base"' EXIT
git archive "$base" | tar -x -C "$dir/base"

name() { echo "$1" | tr -c 'A-Za-z0-9\n' _; }
for pkg in $PKGS; do
	n=$(name "$pkg")
	"$GO" test -c -o "$dir/head-$n.test" "$pkg"
	(cd "$dir/base" && "$GO" test -c -o "$dir/base-$n.test" "$pkg")
done
"$GO" build -o "$dir/benchjson" ./cmd/benchjson

# Odd rounds run the base tree first and even rounds the head, so whatever
# running second does to a measurement falls on both trees alike.
for r in $(seq "$rounds"); do
	echo "commit: $base" >"$dir/base-$r.txt"
	order="base head"
	[ $((r % 2)) -eq 0 ] && order="head base"
	for pkg in $PKGS; do
		n=$(name "$pkg")
		for tree in $order; do
			src="$top"
			[ "$tree" = base ] && src="$dir/base"
			(cd "$src/$pkg" && "$dir/$tree-$n.test" -test.run '^$' -test.bench "$PATTERN" -test.benchtime "$TIME" -test.benchmem -test.timeout 10m) >>"$dir/$tree-$r.txt"
		done
	done
done

files() { seq "$rounds" | sed "s|.*|$dir/$1-&.txt|" | paste -sd, -; }
"$dir/benchjson" -in "$(files base)" -out "$dir/base.json"
"$dir/benchjson" -in "$(files head)" -out BENCH_pinned.json -baseline BENCH_baseline.json
"$dir/benchjson" -in "$(files head)" -out BENCH_pinned.json \
	-baseline "$dir/base.json" -threshold 0.25 -pin "$PINS"
