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
// Every field acts on a server — which of them acts on which server role is
// ForRole's to say. A worker reads only Compression; how often it heartbeats
// is the server's to say (Lease).
type Options struct {
	// Shards is the number of independently locked parameter-store
	// partitions. A standalone server's 0 picks one per CPU; a coordinator's is
	// its group's count, and 0 picks two per data server. A data server is told
	// its range's shards by the coordinator and refuses it.
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
	// Lease, when positive, makes the server elastic: it holds every session
	// to this lease, names it in every Registered reply, and the client
	// heartbeats every quarter of it on its own; a session silent for longer
	// is evicted, a departed worker may rejoin within one lease, and the run
	// completes when every live worker has finished even if some slots
	// departed for good. Zero is fixed membership: no lease, no eviction for
	// silence. Either way a dead connection notifies the policy.
	Lease time.Duration
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
	if o.Lease < 0 {
		return o, fmt.Errorf("ps: negative lease %v", o.Lease)
	}
	return o, nil
}

// ForRole splits o for a server in role (ClusterConfig.Role): the options that
// server acts on, and the names of the fields set in o that it does not — the
// one place that decides which option acts on which role. Start refuses a
// configuration whose refusals are not empty; an in-process group gives each
// member the first result.
//
// A flat server acts on every server-side field. A data server acts on every
// field but Shards: the coordinator lays the group out and tells a data
// server its range. A coordinator carries no weights: it acts on neither the
// guard, which screens gradient bytes, nor a robust aggregator, which reduces
// them, nor checkpoints, which would hold no tensors.
func (o Options) ForRole(role string) (Options, []string) {
	var refused []string
	if role == RoleData && o.Shards != 0 {
		refused = append(refused, "Shards (the coordinator lays the group out and tells a data server its range)")
		o.Shards = 0
	}
	if role == RoleCoordinator {
		if o.Guard.Enabled {
			refused = append(refused, "Guard (the anomaly guard screens gradient bytes and runs on data servers)")
		}
		if o.Aggregator.Normalized() != (AggregatorConfig{Kind: AggSum}) {
			refused = append(refused, "Aggregator (an aggregator reduces gradient bytes and runs on data servers)")
		}
		if o.Checkpoint != (CheckpointConfig{}) {
			refused = append(refused, "Checkpoint (a coordinator holds no weights, only its clock; configure checkpoints on the data servers)")
		}
		o.Guard, o.Aggregator, o.Checkpoint = GuardConfig{}, AggregatorConfig{}, CheckpointConfig{}
	}
	return o, refused
}
