#!/usr/bin/env bash
# Runs the two shipped binaries, psserver and psworker, end to end over
# loopback on fixed ports: a flat 2-worker BSP job on an uneven split (both
# workers must report the same iteration count, and the server must apply
# exactly their sum and drop nothing), a coordinator with two data
# servers (-shards 4 on every member), a backup for data server 0 that finds
# it in the coordinator's cluster map and ends naming it and the positive
# store version it replicated, and reconnecting group workers, and a
# root fronted by one relay. Every worker is the same command line, with no
# topology flag: the server it dials says whether it is flat, a tree's root
# or a coordinator, and a worker pointed at a data server must exit non-zero
# with an error naming the coordinator. The group and the root lease
# their sessions at 200ms (-lease), and one worker of each job computes for
# 300ms an iteration with no heartbeat flag anywhere: the coordinator and the
# root must each end reporting 0 departures. Every process must exit 0. It
# also checks that each role refuses, by name, a flag it does not read
# (psserver parses a command line with its -role's own flag set): a relay
# -guard, -workers, -compress and -lease (codec and lease are the root's), a
# coordinator -cluster-index, a backup -primary (the map names its primary),
# a flat server -parent (a relay's flag, given without -role relay); and that
# a coordinator refuses the option its role does not act on (-guard again: it
# carries no gradient bytes). No log may print Paradigm(0): a data server and
# a backup start naming the shard range they hold, not a paradigm.
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
start flat-w0 "$worker" -server 127.0.0.1:17170 -id 0 "${work[@]}" -examples 17 -batch 4
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

# Liveness: each leasing job runs on 64 examples (two iterations a worker), at
# a 200ms lease, with one worker silent 300ms an iteration and the other
# waiting on it. Its clients heartbeat at the lease their Registered replies
# name, so nobody departs.
lease=(-lease 200ms)
small=(-examples 64)
# departed <log> fails the smoke unless the end-of-run line reports 0
# departures.
departed() {
	if ! grep -q 'all workers finished: .*, 0 departures,' "$dir/$1.log"; then
		echo "cli-smoke: $1 did not end with 0 departures" >&2
		cat "$dir/$1.log" >&2
		exit 1
	fi
	echo "cli-smoke: $1 ended with 0 departures"
}
# joined <name> <port> <series> waits until <series> on the admin endpoint at
# 127.0.0.1:<port> reads at least 1. A leasing server holds the run for a
# worker that has not joined for one lease from its first admission, so the
# slow worker joins before the fast one starts: a process start slower than
# the lease on a loaded machine cannot then leave the fast one to end the run
# alone.
joined() {
	local i body
	for i in $(seq 200); do
		body=$( (exec 3<>"/dev/tcp/127.0.0.1/$2" && printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && cat <&3) 2>/dev/null || true)
		grep -Eq "^$3 [1-9]" <<<"$body" && return 0
		sleep 0.05
	done
	echo "cli-smoke: $1 never read $3 above 0" >&2
	exit 1
}

# Group: a coordinator and two data servers, one group-wide -shards on all,
# every member leasing, and a backup for index 0 that is given no address of
# its primary: it must find data server 0 in the coordinator's cluster map.
# The workers run with -reconnect, as a deployment that rides out a lost
# coordinator connection would; worker 1 is the slow one, and it joins first:
# a worker registers with the coordinator and then each data server in map
# order, so once data server 1 holds its session every member does. A backup
# serves no workers of its own: the coordinator's report that the run is
# complete ends it, and it must exit 0 like every other member.
start group-coord "$server" -addr 127.0.0.1:17180 -role coordinator -cluster-servers 2 -workers 2 -shards 4 \
	"${lease[@]}" "${small[@]}"
ready group-coord "parameter server listening"
for i in 0 1; do
	start "group-data$i" "$server" -addr "127.0.0.1:1718$((i + 1))" -role data -peers 127.0.0.1:17180 \
		-cluster-servers 2 -cluster-index "$i" -workers 2 -shards 4 "${lease[@]}" -metrics-addr "127.0.0.1:1718$((i + 4))"
done
# A worker pointed at a data server learns from its layout reply that no
# relay covers it, and its registration is then refused, naming the
# coordinator. It admits nobody, so the group's run is untouched.
ready group-data0 "parameter server listening"
if timeout 5 "$worker" -server 127.0.0.1:17181 -id 0 "${work[@]}" "${small[@]}" >"$dir/group-stray.log" 2>&1; then
	echo "cli-smoke: a worker pointed at data server 0 exited 0" >&2
	exit 1
fi
if ! grep -q "point workers at its coordinator, 127.0.0.1:17180" "$dir/group-stray.log"; then
	echo "cli-smoke: the worker pointed at data server 0 was not told the coordinator's address" >&2
	cat "$dir/group-stray.log" >&2
	exit 1
fi
echo "cli-smoke: data server 0 refused a worker, naming the coordinator"
for i in 1 0; do
	start "group-w$i" "$worker" -server 127.0.0.1:17180 -id "$i" "${work[@]}" \
		-reconnect 30s "${small[@]}" -delay "$((i * 300))ms"
	[ "$i" -eq 0 ] || joined group-data1 17185 dssp_sessions_active
done
start group-backup0 "$server" -addr 127.0.0.1:17183 -role backup -peers 127.0.0.1:17180 \
	-cluster-servers 2 -cluster-index 0 -workers 2 -shards 4 "${lease[@]}"
ready group-backup0 "cluster backup replicating 127.0.0.1:17181,"
echo "cli-smoke: the backup found data server 0 (127.0.0.1:17181) in the cluster map"
finish group
departed group-coord
# The backup ends with its own line: the primary it replicated, and the store
# version it reached, past 0.
if ! grep -Eq 'run complete: backup of 127\.0\.0\.1:17181 at store version [1-9][0-9]*,' "$dir/group-backup0.log"; then
	echo "cli-smoke: group-backup0 did not end naming 127.0.0.1:17181 at a positive store version" >&2
	cat "$dir/group-backup0.log" >&2
	exit 1
fi
echo "cli-smoke: group-backup0 ended naming 127.0.0.1:17181 at a positive store version"

# Tree: a leasing root and one fanout-2 relay with its default flags; the
# workers find the relay through the root's layout, and worker 1 is the slow
# one, which joins first. The relay leases them at the root's lease.
start tree-root "$server" -addr 127.0.0.1:17190 -workers 2 "${lease[@]}" "${small[@]}" -metrics-addr 127.0.0.1:17189
ready tree-root "parameter server listening"
start tree-relay "$server" -addr 127.0.0.1:17191 -role relay -parent 127.0.0.1:17190 -fanout 2
ready tree-relay "aggregation relay listening"
for i in 1 0; do
	start "tree-w$i" "$worker" -server 127.0.0.1:17190 -id "$i" "${work[@]}" "${small[@]}" -delay "$((i * 300))ms"
	[ "$i" -eq 0 ] || joined tree-root 17189 dssp_tree_routed_workers
done
finish tree
departed tree-root
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
refuses relay-compress -compress -addr 127.0.0.1:17194 -role relay -parent 127.0.0.1:17199 -compress fp16
refuses relay-lease -lease -addr 127.0.0.1:17193 -role relay -parent 127.0.0.1:17199 -lease 200ms
refuses backup-primary -primary -addr 127.0.0.1:17192 -role backup -peers 127.0.0.1:17199 -cluster-servers 2 -primary 127.0.0.1:17181
refuses flat-parent -parent -addr 127.0.0.1:17196 -parent 127.0.0.1:17199 -fanout 2 -workers 2
refuses coord-index -cluster-index -addr 127.0.0.1:17195 -role coordinator -cluster-servers 2 -workers 2 -cluster-index 1

# A coordinator refuses an option its role does not act on.
refuses coord-guard Guard -addr 127.0.0.1:17198 -role coordinator -cluster-servers 2 -workers 2 -guard

# A data server and a backup run no paradigm: their start-up lines name the
# shard range they hold instead of printing the zero paradigm.
if grep -l 'Paradigm(0)' "$dir"/*.log; then
	echo "cli-smoke: the logs above print Paradigm(0)" >&2
	exit 1
fi
echo "cli-smoke: no log prints Paradigm(0)"
