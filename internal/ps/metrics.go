package ps

import (
	"strconv"

	"dssp/internal/obs"
)

// serverMetrics is the server's live instrumentation bundle: every counter,
// gauge and histogram the push/pull/session/checkpoint paths touch,
// resolved once at construction so the hot paths pay only atomic updates.
// The unified counters here are the single source of truth the Status
// snapshot reads — there is no second, ad-hoc set of fields to drift from.
type serverMetrics struct {
	pushes       *obs.Counter
	droppedGuard *obs.Counter
	releases     *obs.Counter
	departures   *obs.Counter
	rejoins      *obs.Counter

	staleness *obs.Histogram
	// stalenessMax is the largest staleness observed; written under policyMu.
	stalenessMax *obs.Gauge
	// waits holds each worker slot's accumulated release wait in seconds,
	// indexed by slot; written under policyMu.
	waits []*obs.Gauge

	phaseDecode *obs.Histogram
	phaseGuard  *obs.Histogram
	phasePolicy *obs.Histogram
	releaseLag  *obs.Histogram

	pulls         *obs.Counter
	pullSeconds   *obs.Histogram
	pullUnchanged *obs.Counter

	guardFlags     *obs.Counter
	guardEvictions *obs.Counter

	clusterMapRequests *obs.Counter
	clusterAnnounces   *obs.Counter
	clusterPromotions  *obs.Counter

	treePartials      *obs.Counter
	treePartialSize   *obs.Histogram
	treeChildJoins    *obs.Counter
	treeChildLeaves   *obs.Counter
	treeLayoutFetches *obs.Counter

	ckptTotal   *obs.Counter
	ckptErrors  *obs.Counter
	ckptFailed  *obs.Gauge
	ckptSeconds *obs.Histogram
	ckptBytes   *obs.Counter
}

// newServerMetrics registers the server metric families on reg for a server
// of the given worker slots. Every series — including labeled children — is
// created here, so a scrape before any traffic already shows the full
// catalog at zero.
func newServerMetrics(reg *obs.Registry, workers int) *serverMetrics {
	dropped := reg.CounterVec("dssp_push_dropped_total",
		"Pushes rejected without reaching the store, by reason.", "reason")
	phase := reg.HistogramVec("dssp_push_phase_seconds",
		"Push-handler stage latency by phase (decode, guard, policy).",
		obs.LatencyBuckets, "phase")
	wait := reg.GaugeVec("dssp_worker_wait_seconds",
		"Accumulated time each worker slot waited from its push to its release.", "worker")
	waits := make([]*obs.Gauge, workers)
	for w := range waits {
		waits[w] = wait.With(strconv.Itoa(w))
	}
	return &serverMetrics{
		pushes: reg.Counter("dssp_push_total",
			"Gradient pushes accepted and applied to the store."),
		droppedGuard: dropped.With("guard"),
		releases: reg.Counter("dssp_release_total",
			"OK release messages delivered to workers."),
		departures: reg.Counter("dssp_departures_total",
			"Sessions deregistered before finishing: connection failures, leaves, lease evictions."),
		rejoins: reg.Counter("dssp_rejoins_total",
			"MsgRejoin registrations accepted."),
		staleness: reg.Histogram("dssp_push_staleness",
			"Iteration staleness of applied pushes (apply version minus base version minus one, clamped at 0).",
			obs.StalenessBuckets),
		stalenessMax: reg.Gauge("dssp_push_staleness_max",
			"Largest iteration staleness of any applied push."),
		waits:       waits,
		phaseDecode: phase.With("decode"),
		phaseGuard:  phase.With("guard"),
		phasePolicy: phase.With("policy"),
		releaseLag: reg.Histogram("dssp_release_lag_seconds",
			"Time from release decision to delivery readiness: how long the sequencer waited on the apply gate.",
			obs.LatencyBuckets),
		pulls: reg.Counter("dssp_pull_total",
			"Pull requests served."),
		pullSeconds: reg.Histogram("dssp_pull_seconds",
			"Pull handler latency: request arrival to the reply enqueued.",
			obs.LatencyBuckets),
		pullUnchanged: reg.Counter("dssp_pull_unchanged_total",
			"Pulls answered with one payload-free Unchanged frame: the replica already held the store's version."),
		guardFlags: reg.Counter("dssp_guard_flags_total",
			"Anomaly flags raised by the push guard."),
		guardEvictions: reg.Counter("dssp_guard_evictions_total",
			"Workers evicted by the push guard."),
		clusterMapRequests: reg.Counter("dssp_cluster_map_requests_total",
			"Cluster-map fetches served (coordinator only; always zero elsewhere)."),
		clusterAnnounces: reg.Counter("dssp_cluster_announces_total",
			"Data-server announcements accepted, each making its sender a range's owner or a standby for it (coordinator only)."),
		clusterPromotions: reg.Counter("dssp_cluster_promotions_total",
			"Standbys promoted to their range's owner when the owner's announce stream ended mid-run (coordinator only)."),
		treePartials: reg.Counter("dssp_tree_partials_total",
			"Aggregated relay partials accepted into the store (each stands in for several logical pushes)."),
		treePartialSize: reg.Histogram("dssp_tree_partial_size",
			"Logical pushes carried by each accepted relay partial.",
			obs.SizeBuckets),
		treeChildJoins: reg.Counter("dssp_tree_child_joins_total",
			"Worker registrations accepted through relay trunks."),
		treeChildLeaves: reg.Counter("dssp_tree_child_leaves_total",
			"Unfinished workers' departures forwarded by relay trunks (relay deaths sweep their children through the same counter)."),
		treeLayoutFetches: reg.Counter("dssp_tree_layout_fetches_total",
			"Aggregation-tree layout requests served."),
		ckptTotal: reg.Counter("dssp_checkpoint_total",
			"Checkpoint save attempts."),
		ckptErrors: reg.Counter("dssp_checkpoint_errors_total",
			"Checkpoint save failures."),
		ckptFailed: reg.Gauge("dssp_checkpoint_last_failed",
			"1 when the most recent checkpoint save failed, 0 otherwise."),
		ckptSeconds: reg.Histogram("dssp_checkpoint_seconds",
			"Checkpoint save duration.", obs.LatencyBuckets),
		ckptBytes: reg.Counter("dssp_checkpoint_bytes_written_total",
			"Bytes written by checkpoint saves."),
	}
}

// storeMetrics instruments the store's apply pipeline. The store carries
// it only when a server installed it (Store.instrument): bare stores —
// including the pinned hot-path benchmarks — keep nil and pay a single
// pointer test per batch.
type storeMetrics struct {
	applyBatch   *obs.Histogram
	applySeconds *obs.Histogram
	cloneSeconds *obs.Histogram
	cloneReuse   *obs.Counter
	cloneAlloc   *obs.Counter
	cloneHeap    *obs.Counter
}

// newStoreMetrics registers the store metric families on reg.
func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	return &storeMetrics{
		applyBatch: reg.Histogram("dssp_store_apply_batch_size",
			"Pushes coalesced into one optimizer step by a shard applier.",
			obs.SizeBuckets),
		applySeconds: reg.Histogram("dssp_store_apply_seconds",
			"Shard applier batch latency: aggregation, COW clone, and optimizer step.",
			obs.LatencyBuckets),
		cloneSeconds: reg.Histogram("dssp_store_clone_seconds",
			"Copy-on-write clone time within a shard apply.",
			obs.LatencyBuckets),
		cloneReuse: reg.Counter("dssp_store_clone_reuse_total",
			"Copy-on-write publications that recycled a retired generation's buffers instead of allocating."),
		cloneAlloc: reg.Counter("dssp_store_clone_alloc_total",
			"Copy-on-write publications that allocated fresh parameter buffers."),
		cloneHeap: reg.Counter("dssp_store_clone_heap_total",
			"Of the allocations, those on the heap instead of the shared generation region (none shared, or no room): their pulls are copied."),
	}
}

// clientMetrics instruments the worker side: how long pulls take
// end-to-end and how long a push round-trip (send to OK) blocks the
// training loop — the live form of the paper's waiting-time metric.
type clientMetrics struct {
	pullSeconds    *obs.Histogram
	pushRTTSeconds *obs.Histogram
	iterations     *obs.Counter
}

// newClientMetrics registers the worker metric families on reg.
func newClientMetrics(reg *obs.Registry) *clientMetrics {
	return &clientMetrics{
		pullSeconds: reg.Histogram("dssp_worker_pull_seconds",
			"Worker-observed pull latency (request to fully reassembled weights).",
			obs.LatencyBuckets),
		pushRTTSeconds: reg.Histogram("dssp_worker_push_rtt_seconds",
			"Worker-observed push round-trip: gradients sent to OK received (includes policy wait).",
			obs.LatencyBuckets),
		iterations: reg.Counter("dssp_worker_iterations_total",
			"Training iterations completed (push round-trips)."),
	}
}
