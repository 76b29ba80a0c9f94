#!/usr/bin/env bash
# Counts how often each tier-1 test fails: runs `go test -count=N -json ./...`
# twice, once alone and once beside one CPU-bound sibling process (a shell
# busy loop this script starts before that arm and kills after it), and writes
# every top-level test's runs and failures in each arm to one JSON record. A
# subtest's failure fails its parent, so the parent's count carries it; a
# test binary that dies (panic, timeout) leaves its tests with fewer than N
# runs. It changes no machine setting and is not a CI step: at N=20 it takes
# about half an hour on 2 CPUs.
#
# Usage: scripts/flake_census.sh <N> <out.json>
set -euo pipefail

n=${1:?usage: $0 <runs per test> <out.json>}
out=${2:?usage: $0 <runs per test> <out.json>}
go=${GO:-go}
tmp=$(mktemp -d)
hog=
trap '[ -z "$hog" ] || kill "$hog" 2>/dev/null || true; rm -rf "$tmp"' EXIT

# arm <name> runs the suite once at -count=N into $tmp/<name>.json and records
# its wall time. A failing suite is what is being counted, not an error here.
arm() {
	local start=$SECONDS
	echo "flake-census: $1 arm, -count=$n" >&2
	"$go" test -count="$n" -timeout 60m -json ./... >"$tmp/$1.json" 2>"$tmp/$1.err" || true
	echo $((SECONDS - start)) >"$tmp/$1.seconds"
}

arm alone
(while :; do :; done) &
hog=$!
arm loaded
kill "$hog"
wait "$hog" 2>/dev/null || true
hog=

jq -n --slurpfile alone "$tmp/alone.json" --slurpfile loaded "$tmp/loaded.json" \
	--argjson n "$n" --argjson cpus "$(nproc)" \
	--argjson alone_s "$(cat "$tmp/alone.seconds")" --argjson loaded_s "$(cat "$tmp/loaded.seconds")" \
	--arg source "$(git describe --always --dirty)" --arg go "$("$go" env GOVERSION)" '
	def tally: map(select(.Test != null and (.Test | contains("/") | not)
			and (.Action == "pass" or .Action == "fail")))
		| group_by([.Package, .Test])
		| map({key: (.[0].Package + ":" + .[0].Test),
			value: {runs: length, failures: (map(select(.Action == "fail")) | length)}})
		| from_entries;
	($alone | tally) as $a | ($loaded | tally) as $l
	| ([$a, $l] | add | keys_unsorted | unique) as $keys
	| [$keys[] | {test: ., alone: ($a[.] // {runs: 0, failures: 0}), loaded: ($l[.] // {runs: 0, failures: 0})}] as $tests
	| {
		source: $source, go: $go, cpus: $cpus, count: $n,
		command: "go test -count=\($n) -json ./...",
		arms: {
			alone: {seconds: $alone_s, note: "nothing else started"},
			loaded: {seconds: $loaded_s, note: "beside one CPU-bound sibling process (a shell busy loop)"}
		},
		failing: [$tests[] | select(.alone.failures > 0 or .loaded.failures > 0)],
		short: [$tests[] | select(.alone.runs < $n or .loaded.runs < $n)],
		tests: $tests
	}' >"$tmp/record.json"
# Pretty, but one line per test, so that two records diff line by line.
{
	jq 'del(.tests)' "$tmp/record.json" | sed '$d' | sed '$s/$/,/'
	echo '  "tests": ['
	jq -c '.tests[]' "$tmp/record.json" | sed -e 's/^/    /' -e '$!s/$/,/'
	echo '  ]'
	echo '}'
} >"$out"
echo "flake-census: wrote $out ($(jq '.tests | length' "$out") tests, $(jq '.failing | length' "$out") failing in some arm)" >&2
