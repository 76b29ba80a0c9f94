package dssp

import "dssp/internal/ps"

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
// which embed it (cfg.Compression, cfg.Shards, ...). It is ps.Options, where
// each field is documented. A few fields are one-sided and ignored by the
// other role: Aggregator, Guard, Elastic, HeartbeatTimeout and Checkpoint act
// on the server, HeartbeatInterval on workers, and Shards sizes the store a
// server builds — on a group member the group-wide count — while on a worker
// a positive value is the count it checks at registration. On WorkerConfig
// an empty Compression codec means "adopt whatever the server speaks".
// TrainConfig drives both sides, so every field applies there.
type Options = ps.Options
