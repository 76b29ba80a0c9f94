package dssp

import (
	"fmt"
	"time"

	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// Cluster roles for ClusterOptions.Role (the -role flag on cmd/psserver).
// The empty string is a classic standalone server.
const (
	// RoleCoordinator owns the policy layer of a server group: it serves the
	// cluster map, accepts metadata-only pushes, and runs the real
	// BSP/SSP/DSSP staleness decisions. It never carries model weights.
	RoleCoordinator = "coordinator"
	// RoleData owns a contiguous range of the global store shards: it runs
	// its own applier pipeline, COW store and packed-pull cache for that
	// slice, and announces itself to the coordinator so workers can route
	// fragments to it.
	RoleData = "data"
	// RoleBackup stands by for one data server: it replicates the primary's
	// published weights over a read-only, version-gated pull stream and
	// requests promotion from the coordinator when the primary stays
	// unreachable past the replication grace.
	RoleBackup = "backup"
)

// ClusterOptions configures a psserver's place in a server group
// (ServerConfig.Cluster). The zero value is a standalone server. Every
// member of one group must be started with the same model, dataset, seed,
// Servers and Options.Shards (the group-wide shard count; 0 picks two per
// data server) — the shard layout is derived deterministically from them,
// which is what lets servers that have never spoken to each other agree on
// byte-exact shard boundaries. A data server started with another count
// whose range then falls outside the coordinator's is refused at announce.
type ClusterOptions struct {
	// Role is RoleCoordinator, RoleData, RoleBackup, or "" for standalone.
	Role string
	// Coordinator is the coordinator's address; required for data and
	// backup roles (the -peers flag).
	Coordinator string
	// Servers is the number of data servers in the group (all roles).
	Servers int
	// Index is this server's slot in [0, Servers) — which shard range of
	// the group layout it owns. Data and backup roles only.
	Index int
	// Advertise is the address put in the cluster map for this server —
	// what workers dial. Defaults to the listener's address, which is only
	// right when it is reachable as-is (no ":7070"-style wildcard binds
	// behind NAT).
	Advertise string
	// Primary is the data server this backup replicates from (backup role).
	Primary string
	// ReplicateEvery is the backup's replication poll cadence (default 25ms).
	ReplicateEvery time.Duration
	// ReplicateGrace is how long the primary may stay unreachable before the
	// backup declares it dead and requests promotion (default 2s).
	ReplicateGrace time.Duration
}

// validateCluster checks role-specific requirements — the one place a
// server's group role is validated.
func (cfg ServerConfig) validateCluster() error {
	c := cfg.Cluster
	switch c.Role {
	case "":
		return nil
	case RoleCoordinator:
		if c.Servers < 1 {
			return fmt.Errorf("dssp: coordinator needs the group's data-server count (Servers)")
		}
		// A coordinator carries no weights: nothing for a guard to screen,
		// nothing worth checkpointing. Say so rather than ignore the request.
		if cfg.Guard.Enabled {
			return fmt.Errorf("dssp: the anomaly guard screens gradient bytes and runs on data servers; disable it on the coordinator")
		}
		if cfg.Checkpoint.Dir != "" {
			return fmt.Errorf("dssp: a coordinator holds no weights, only a placeholder clock; configure checkpoints on the data servers")
		}
		return nil
	case RoleData, RoleBackup:
		if c.Coordinator == "" {
			return fmt.Errorf("dssp: %s server needs the coordinator's address", c.Role)
		}
		if c.Servers < 1 {
			return fmt.Errorf("dssp: %s server needs the group's data-server count (Servers)", c.Role)
		}
		if c.Index < 0 || c.Index >= c.Servers {
			return fmt.Errorf("dssp: %s server index %d outside [0, %d)", c.Role, c.Index, c.Servers)
		}
		if c.Role == RoleBackup && c.Primary == "" {
			return fmt.Errorf("dssp: backup server needs its primary's address")
		}
		return nil
	default:
		return fmt.Errorf("dssp: unknown cluster role %q (want %q, %q or %q)",
			c.Role, RoleCoordinator, RoleData, RoleBackup)
	}
}

// asMember completes pcfg for this server's group role, resolving which slice
// of the group layout — pcfg.Shards global shards over Servers data servers —
// it owns (none, for the coordinator).
func (c ClusterOptions) asMember(pcfg ps.ServerConfig, initial []*tensor.Tensor, opt optimizer.Optimizer) (ps.ServerConfig, ps.ShardAssignment, error) {
	layout, globalShards, err := ps.GroupLayout(ps.TensorSizes(initial), pcfg.Shards, c.Servers)
	if err != nil {
		return pcfg, ps.ShardAssignment{}, err
	}
	var own ps.ShardAssignment
	var member *ps.ShardAssignment
	if c.Role != RoleCoordinator {
		own = layout[c.Index]
		member = &own
	}
	pcfg, err = pcfg.AsGroupMember(initial, opt, globalShards, member)
	return pcfg, own, err
}

// startClusterLoops starts a data or backup server's background protocol:
// the announce stream that doubles as its liveness watch on the coordinator
// and, for a backup, replication from its primary.
func (s *Server) startClusterLoops(cluster ClusterOptions, entry transport.ServerEntry) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		// Losing the coordinator is fatal by design: this server cannot make
		// progress decisions without it (DESIGN.md §10). A coordinator whose
		// run completed says so on the stream before it stops, and Announce
		// returns nil, whenever this server's own workers' Done frames arrive.
		if err := ps.Announce(transport.Dial, cluster.Coordinator, entry, s.role == RoleBackup, s.stopping); err != nil {
			s.fail(fmt.Errorf("dssp: %s server lost the coordinator at %s: %w", s.role, cluster.Coordinator, err))
		}
	}()
	if s.role == RoleBackup {
		s.bg.Add(1)
		go s.replicateLoop(cluster, entry)
	}
}

// fail records a fatal cluster condition and closes the Failed channel.
func (s *Server) fail(err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		close(s.failed)
	})
}

// replicateLoop is the backup role's replication driver: it streams the
// primary's weights into the standby store and, when the primary stays dead
// past the grace, asks the coordinator to promote this server's address into
// the map. After promotion the backup IS the shard owner — its ps.Server has
// been serving the (now current) store all along.
func (s *Server) replicateLoop(cluster ClusterOptions, entry transport.ServerEntry) {
	defer s.bg.Done()
	err := ps.RunReplicator(ps.ReplicatorConfig{
		Dial:     func() (transport.Conn, error) { return transport.Dial(cluster.Primary) },
		Store:    s.store,
		Interval: cluster.ReplicateEvery,
		Grace:    cluster.ReplicateGrace,
		Metrics:  s.inner.Registry(),
	}, s.stopping)
	if err == nil {
		return // Stop
	}
	if err != ps.ErrPrimaryDead {
		s.fail(fmt.Errorf("dssp: backup replication: %w", err))
		return
	}
	conn, err := transport.Dial(cluster.Coordinator)
	if err != nil {
		s.fail(fmt.Errorf("dssp: backup cannot reach the coordinator to request promotion: %w", err))
		return
	}
	defer conn.Close()
	if err := ps.SubmitEntry(conn, transport.MsgPromote, entry, false); err != nil {
		s.fail(fmt.Errorf("dssp: promotion request: %w", err))
		return
	}
	s.promoted.Store(true)
}

// Failed returns a channel closed when a fatal cluster condition ended this
// server's usefulness — a data server or backup losing its coordinator, or a
// backup unable to complete promotion. Standalone servers never close it.
// FailureErr reports the cause after it closes.
func (s *Server) Failed() <-chan struct{} { return s.failed }

// FailureErr returns the error that closed Failed, or nil.
func (s *Server) FailureErr() error {
	select {
	case <-s.failed:
		return s.failErr
	default:
		return nil
	}
}

// Role returns the server's cluster role ("" for standalone).
func (s *Server) Role() string { return s.role }

// Promoted reports whether this backup completed promotion to shard owner.
func (s *Server) Promoted() bool { return s.promoted.Load() }

// ClusterMap returns a coordinator's current map entries and map version
// (nil, 0 on every other role).
func (s *Server) ClusterMap() ([]transport.ServerEntry, int64) { return s.inner.ClusterMap() }

// clusterSnapshot assembles the group's full weight vector by reading every
// data server through a read-only replica session — registration-free as far
// as the paradigm is concerned, so evaluation never perturbs synchronization.
func clusterSnapshot(coordAddr string) ([]*tensor.Tensor, error) {
	m, err := ps.FetchClusterMap(transport.Dial, coordAddr)
	if err != nil {
		return nil, err
	}
	if len(m.Servers) == 0 {
		return nil, fmt.Errorf("dssp: cluster map is empty")
	}
	out := make([]*tensor.Tensor, m.Total)
	for _, e := range m.Servers {
		conn, err := transport.Dial(e.Addr)
		if err != nil {
			return nil, fmt.Errorf("dssp: snapshot dial %s: %w", e.Addr, err)
		}
		client, err := ps.OpenReplica(conn)
		if err != nil {
			return nil, fmt.Errorf("dssp: snapshot session at %s: %w", e.Addr, err)
		}
		params, _, err := client.Pull()
		if err == nil && (e.TensorHi > len(out) || len(params) != e.TensorHi-e.TensorLo) {
			err = fmt.Errorf("%d tensors for range [%d, %d)", len(params), e.TensorLo, e.TensorHi)
		}
		// The pulled tensors are on lease from the client, which Close ends.
		for i := 0; err == nil && i < len(params); i++ {
			out[e.TensorLo+i] = params[i].Clone()
		}
		client.Close()
		if err != nil {
			return nil, fmt.Errorf("dssp: snapshot pull from %s: %w", e.Addr, err)
		}
	}
	for i, p := range out {
		if p == nil {
			return nil, fmt.Errorf("dssp: cluster map covers no owner for tensor %d", i)
		}
	}
	return out, nil
}
