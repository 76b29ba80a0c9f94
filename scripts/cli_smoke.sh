#!/usr/bin/env bash
# Runs the two shipped binaries, psserver and psworker, end to end over
# loopback on fixed ports: a flat 2-worker job, a coordinator with two data
# servers (-shards 4 on every member) and reconnecting, heartbeating group
# workers, and a root fronted by one relay with -tree workers. Every process
# must exit 0. It also checks that a relay refuses a server-only flag
# (-guard) by name instead of ignoring it, and that a coordinator refuses the
# one it does not act on (-guard again: it carries no gradient bytes).
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

# Flat: one server, two workers.
start flat-server "$server" -addr 127.0.0.1:17170 -workers 2 -shards 3
ready flat-server "parameter server listening"
start flat-w0 "$worker" -server 127.0.0.1:17170 -id 0 "${work[@]}" -shards 3
start flat-w1 "$worker" -server 127.0.0.1:17170 -id 1 "${work[@]}" -delay 1ms
finish flat

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
		-reconnect -heartbeat 50ms
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

# A relay refuses a flag only a server acts on.
if "$server" -role relay -parent 127.0.0.1:17199 -guard >"$dir/relay-guard.log" 2>&1; then
	echo "cli-smoke: psserver -role relay -guard exited 0" >&2
	exit 1
fi
if ! grep -q -- '-guard' "$dir/relay-guard.log"; then
	echo "cli-smoke: the relay's refusal does not name -guard" >&2
	cat "$dir/relay-guard.log" >&2
	exit 1
fi
echo "cli-smoke: relay refuses -guard"

# A coordinator refuses an option its role does not act on.
if "$server" -addr 127.0.0.1:17198 -role coordinator -cluster-servers 2 -workers 2 -guard >"$dir/coord-guard.log" 2>&1; then
	echo "cli-smoke: psserver -role coordinator -guard exited 0" >&2
	exit 1
fi
if ! grep -qi 'guard' "$dir/coord-guard.log"; then
	echo "cli-smoke: the coordinator's refusal does not name the guard" >&2
	cat "$dir/coord-guard.log" >&2
	exit 1
fi
echo "cli-smoke: coordinator refuses -guard"
