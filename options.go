package dssp

import (
	"time"

	"dssp/internal/ps"
	"dssp/internal/trainer"
)

// Adversary makes one worker Byzantine for robustness experiments: it still
// computes honest gradients from its data shard, then corrupts what it tells
// the server — scaled (GradScale), negated (SignFlip), or stamped with an
// impossibly fresh base version (LieVersion). The zero value is honest. An
// adversarial worker is expected to be neutralized — its updates out-voted by
// a robust Aggregator, or the worker evicted by the Guard — so its connection
// dying mid-run counts as a crash, not an error.
type Adversary = trainer.Adversary

// Aggregator names for Aggregator.Kind.
const (
	// AggregateSum sums pushed gradients — the classic parameter-server
	// update and the default. Undefended: one Byzantine worker scaling its
	// gradients steers the whole model.
	AggregateSum = ps.AggSum
	// AggregateClipped caps each push's per-tensor L2 norm before summing,
	// bounding any single worker's influence on an update.
	AggregateClipped = ps.AggClipped
	// AggregateTrimmedMean applies the coordinate-wise trimmed mean over a
	// window of pushes, discarding the extremes each coordinate saw.
	AggregateTrimmedMean = ps.AggTrimmedMean
	// AggregateMedian applies the coordinate-wise median over a window of
	// pushes — the most aggressive robust estimator.
	AggregateMedian = ps.AggMedian
)

// Aggregator selects how the parameter server reduces pushed gradients into
// optimizer steps. The zero value is plain summation, bit-identical to the
// classic pipeline; the robust kinds trade a little aggregation latency for
// tolerance of Byzantine (poisoned) gradients.
type Aggregator = ps.AggregatorConfig

// Guard configures server-side anomaly screening: pushes with outlier
// gradient norms, impossible version claims, or flood-like cadence are
// dropped, and workers that keep offending are evicted from the run exactly
// like workers whose lease expired. The zero value screens nothing.
type Guard = ps.GuardConfig

// Options is the serving surface shared by every way of standing up a
// cluster — TrainConfig (in-process), ServerConfig and WorkerConfig (TCP) —
// which embed it, so cfg.Compression and friends read exactly as before the
// consolidation. A few fields are one-sided and ignored by the other role:
// Aggregator, Guard, Elastic, HeartbeatTimeout and Checkpoint act on the
// server; HeartbeatInterval acts on workers. TrainConfig drives
// both sides, so every field applies there.
type Options struct {
	// Shards is the number of independently locked parameter-store
	// partitions (0 = one per CPU). Pulls from different workers read shards
	// concurrently and gradient application parallelizes across shards. On
	// WorkerConfig it is instead the expected server layout: positive values
	// are checked at registration, 0 accepts any.
	Shards int
	// Compression selects the gradient codec on the worker↔server wire; the
	// zero value trains uncompressed. On WorkerConfig an empty codec means
	// "adopt whatever the server speaks".
	Compression Compression
	// Aggregator selects how the server reduces pushed gradients into
	// optimizer steps; the zero value is plain summation.
	Aggregator Aggregator
	// Guard enables server-side anomaly screening and eviction.
	Guard Guard
	// Elastic enables worker-churn tolerance on the server: sessions are
	// lease-monitored and a silent worker is evicted from synchronization
	// accounting instead of stalling its peers. A dead connection always
	// notifies the policy, Elastic or not.
	Elastic bool
	// HeartbeatInterval is how often workers prove liveness; 0 disables
	// heartbeats. Set it on elastic runs — a worker silent past
	// HeartbeatTimeout is evicted.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the server-side session lease in elastic mode; 0
	// picks the default (5s).
	HeartbeatTimeout time.Duration
	// Checkpoint periodically snapshots the parameter store to disk.
	Checkpoint Checkpoint
}

// serverOptions maps the public surface onto the ps-layer option set the
// server consumes — the one defaulting+validation funnel for every caller.
func (o Options) serverOptions() ps.Options {
	return ps.Options{
		Compression:      o.Compression,
		Aggregator:       o.Aggregator,
		Guard:            o.Guard,
		Elastic:          o.Elastic,
		HeartbeatTimeout: o.HeartbeatTimeout,
		Checkpoint:       o.Checkpoint,
	}
}
