package ps

import (
	"fmt"
	"time"

	"dssp/internal/compress"
)

// Options is the one option set every way of standing up a parameter server
// shares — ServerConfig here, trainer.Config in-process, and the public dssp
// configs, where this type is dssp.Options. They embed it, so a knob is
// declared once and reaches every surface; Normalized is the one
// defaulting+validation helper all of them funnel through.
//
// Every field but HeartbeatInterval acts on a server — which of them acts on
// which server role is ForRole's to say. HeartbeatInterval is read by
// workers, which in turn read only Compression, Shards and HeartbeatInterval.
type Options struct {
	// Shards is the number of independently locked parameter-store
	// partitions. A standalone server's 0 picks one per CPU; in a server group
	// it is the group-wide count, the same on every member, and 0 picks two per
	// data server. On a worker, a positive value is the count it
	// expects the server (or group) to run — a mismatch fails the connect —
	// and 0 accepts any.
	Shards int
	// Compression selects the gradient codec spoken on the wire. Workers
	// must register with a matching configuration (or compress.Auto) or are
	// rejected. With Compression.Pull set, pull replies are compressed
	// too.
	Compression compress.Config
	// Aggregator selects how the per-shard appliers reduce queued pushes
	// into optimizer steps: plain sum (the default), norm-clipped sum, or
	// the windowed robust estimators (trimmed mean, coordinate median) that
	// tolerate Byzantine gradients.
	Aggregator AggregatorConfig
	// Guard enables push screening and staleness-anomaly eviction: norm
	// outliers, impossible version claims and push floods are dropped, and
	// repeat offenders are evicted through the session lease layer.
	Guard GuardConfig
	// Elastic enables lease monitoring (sessions that miss heartbeats for
	// HeartbeatTimeout are evicted) and completes the run when every live
	// worker has finished even if some slots departed for good. Regardless
	// of Elastic, a dead connection always notifies the policy.
	Elastic bool
	// HeartbeatInterval is how often a worker proves liveness; 0 sends no
	// heartbeats (a dead connection is still detected through Recv errors).
	// Set it on elastic runs: a worker silent past HeartbeatTimeout is
	// evicted.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a session may stay silent before the
	// lease monitor evicts it. Zero selects DefaultHeartbeatTimeout when
	// Elastic is set.
	HeartbeatTimeout time.Duration
	// Checkpoint periodically snapshots the store to disk so a restarted
	// server resumes where this one stopped.
	Checkpoint CheckpointConfig
}

// Normalized validates the options and maps zero values onto their explicit
// form — the single defaulting helper every config surface shares.
func (o Options) Normalized() (Options, error) {
	o.Compression = o.Compression.Normalized()
	if err := o.Compression.Validate(false); err != nil {
		return o, fmt.Errorf("ps: server compression: %w", err)
	}
	o.Aggregator = o.Aggregator.Normalized()
	if err := o.Aggregator.Validate(); err != nil {
		return o, err
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	return o, nil
}

// ForRole splits o for a server in role (ClusterConfig.Role): the options that
// server acts on, and the names of the fields set in o that it does not — the
// one place that decides which option acts on which role. Start refuses a
// configuration whose refusals are not empty; an in-process group gives each
// member the first result.
//
// A flat server, a data server and a backup act on every server-side field. A
// coordinator carries no weights: it acts on neither the guard, which screens
// gradient bytes, nor checkpoints, which would hold only its placeholder.
func (o Options) ForRole(role string) (Options, []string) {
	var refused []string
	if role == RoleCoordinator {
		if o.Guard.Enabled {
			refused = append(refused, "Guard (the anomaly guard screens gradient bytes and runs on data servers)")
		}
		if o.Checkpoint != (CheckpointConfig{}) {
			refused = append(refused, "Checkpoint (a coordinator holds no weights, only a placeholder clock; configure checkpoints on the data servers)")
		}
		o.Guard, o.Checkpoint = GuardConfig{}, CheckpointConfig{}
	}
	return o, refused
}
