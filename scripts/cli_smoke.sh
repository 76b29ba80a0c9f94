#!/usr/bin/env bash
# Runs the two shipped binaries, psserver and psworker, end to end over
# loopback on fixed ports: a flat 2-worker BSP job on an uneven split (both
# workers must report the same iteration count, and the server must apply
# exactly their sum and drop nothing), a coordinator with two data
# servers (-shards 4 on every member) and reconnecting, heartbeating group
# workers, and a root fronted by one relay with -tree workers. Every process
# must exit 0. It also checks that each role refuses, by name, a flag it does
# not read (psserver parses a command line with its -role's own flag set): a
# relay -guard and -workers, a coordinator -cluster-index, a flat server
# -parent (a relay's flag, given without -role relay); and that a coordinator
# refuses the option its role does not act on (-guard again: it carries no
# gradient bytes).
#
# Usage: scripts/cli_smoke.sh <dir>
# <dir> holds psserver and psworker (make cli-smoke builds them there) and
# receives one log per process; the logs of a failing job are printed.
set -euo pipefail

dir=${1:?usage: $0 <dir holding psserver and psworker>}
server="$dir/psserver"
worker="$dir/psworker"
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true' EXIT

# start <log> <cmd...> runs a process in the background, logging to $dir.
start() {
	local log="$dir/$1.log"
	shift
	"$@" >"$log" 2>&1 &
	pids+=($!)
}

# ready <log> <line> waits until a server or relay has logged its start line.
ready() {
	local i
	for i in $(seq 200); do
		grep -q "$2" "$dir/$1.log" && return 0
		sleep 0.05
	done
	echo "cli-smoke: $1 never logged '$2'" >&2
	cat "$dir/$1.log" >&2
	exit 1
}

# finish <job> waits for every process started so far; any non-zero exit
# fails the smoke with the job's logs.
finish() {
	local pid failed=0
	for pid in "${pids[@]}"; do
		wait "$pid" || failed=1
	done
	pids=()
	if [ "$failed" -ne 0 ]; then
		echo "cli-smoke: $1 job: a process exited non-zero" >&2
		tail -n 5 "$dir"/*.log >&2
		exit 1
	fi
	echo "cli-smoke: $1 job ok"
}

rm -f "$dir"/*.log
work=(-workers 2 -epochs 1)

# Flat: one BSP server, two workers, on 17 examples that 2 workers do not
# divide. Both workers must still run the same number of iterations, as
# in-process training does: 17/2 = 8 examples each, two batches of 4.
start flat-server "$server" -addr 127.0.0.1:17170 -workers 2 -shards 3 -examples 17 -paradigm BSP
ready flat-server "parameter server listening"
start flat-w0 "$worker" -server 127.0.0.1:17170 -id 0 "${work[@]}" -shards 3 -examples 17 -batch 4
start flat-w1 "$worker" -server 127.0.0.1:17170 -id 1 "${work[@]}" -delay 1ms -examples 17 -batch 4
finish flat
iters() { grep -o 'finished: [0-9]* iterations' "$dir/$1.log" || echo "no iteration count"; }
if [ "$(iters flat-w0)" != "$(iters flat-w1)" ]; then
	echo "cli-smoke: flat workers ran different iteration counts: w0 '$(iters flat-w0)', w1 '$(iters flat-w1)'" >&2
	exit 1
fi
echo "cli-smoke: flat workers ran the same iteration count ($(iters flat-w0))"
# BSP applies every push once.
each=$(iters flat-w0 | grep -o '[0-9]*')
want="all workers finished: $((2 * each)) updates applied,"
if ! grep -q "$want" "$dir/flat-server.log"; then
	echo "cli-smoke: flat BSP server did not report '$want'" >&2
	cat "$dir/flat-server.log" >&2
	exit 1
fi
echo "cli-smoke: flat BSP server applied $((2 * each)) updates"

# Group: a coordinator and two data servers, one group-wide -shards on all.
# The workers run with -reconnect and heartbeats, as a deployment that rides
# out a lost coordinator connection would.
start group-coord "$server" -addr 127.0.0.1:17180 -role coordinator -cluster-servers 2 -workers 2 -shards 4
ready group-coord "parameter server listening"
for i in 0 1; do
	start "group-data$i" "$server" -addr "127.0.0.1:1718$((i + 1))" -role data -peers 127.0.0.1:17180 \
		-cluster-servers 2 -cluster-index "$i" -workers 2 -shards 4
done
for i in 0 1; do
	start "group-w$i" "$worker" -cluster -server 127.0.0.1:17180 -id "$i" "${work[@]}" -shards 4 \
		-reconnect 30s -heartbeat 50ms
done
finish group

# Tree: a root and one fanout-2 relay; the workers find the relay through
# the root's layout.
start tree-root "$server" -addr 127.0.0.1:17190 -workers 2
ready tree-root "parameter server listening"
start tree-relay "$server" -addr 127.0.0.1:17191 -role relay -parent 127.0.0.1:17190 -fanout 2
ready tree-relay "aggregation relay listening"
for i in 0 1; do
	start "tree-w$i" "$worker" -tree -server 127.0.0.1:17190 -id "$i" "${work[@]}"
done
finish tree
if ! grep -Eq 'for [1-9][0-9]* child pushes' "$dir/tree-relay.log"; then
	echo "cli-smoke: the relay forwarded no child pushes" >&2
	cat "$dir/tree-relay.log" >&2
	exit 1
fi

# refuses <name> <flag> <args...> runs psserver with args, which must exit
# non-zero within 5s (a server that starts instead fails, not hangs) and name
# flag in what it prints.
refuses() {
	local log="$dir/refuses-$1.log" flag=$2
	shift 2
	if timeout 5 "$server" "$@" >"$log" 2>&1; then
		echo "cli-smoke: psserver $* exited 0" >&2
		exit 1
	fi
	if ! grep -q -- "$flag" "$log"; then
		echo "cli-smoke: psserver $* does not name $flag" >&2
		cat "$log" >&2
		exit 1
	fi
	echo "cli-smoke: psserver $* refuses $flag"
}

# Each role refuses a flag it does not read.
refuses relay-guard -guard -role relay -parent 127.0.0.1:17199 -guard
refuses relay-workers -workers -addr 127.0.0.1:17197 -role relay -parent 127.0.0.1:17199 -workers 8
refuses flat-parent -parent -addr 127.0.0.1:17196 -parent 127.0.0.1:17199 -fanout 2 -workers 2
refuses coord-index -cluster-index -addr 127.0.0.1:17195 -role coordinator -cluster-servers 2 -workers 2 -cluster-index 1

# A coordinator refuses an option its role does not act on.
refuses coord-guard Guard -addr 127.0.0.1:17198 -role coordinator -cluster-servers 2 -workers 2 -guard
