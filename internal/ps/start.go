package ps

import (
	"fmt"
	"strings"
	"time"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// Start stands one server role up on ln and returns it serving — the one
// place a flat server, a coordinator, a data server or a backup is made
// (DESIGN.md §10), whether over TCP (dssp.Serve) or in process (the trainer).
// initial is the full model and opt the optimizer its store steps with; dial
// reaches the other members of a group.
//
// Start validates the role, refusing by name every option set in cfg that
// the role does not act on (Options.ForRole). It builds the role's store and,
// for a data server or backup, its policy — a local ASP that releases every
// fragment once applied, the paradigm running at the coordinator; a flat
// server and a coordinator run cfg.Policy. A coordinator's store is a
// one-scalar placeholder, so the version bookkeeping the paradigm gates on
// exists without carrying any weights; a data server's or backup's is its
// shard range of the group layout. It restores the checkpoint in
// cfg.Checkpoint.Dir when there is one, and serves ln. A data server or
// backup then announces itself to the coordinator on the parked stream that is
// its liveness watch of it, and a backup replicates its primary and requests
// promotion when the primary dies; either closes Failed on a fatal loss.
//
// Once Start returns a server, the server owns ln and Stop closes it; on an
// error the caller keeps it.
func Start(cfg ServerConfig, initial []*tensor.Tensor, opt optimizer.Optimizer, ln transport.Listener, dial func(string) (transport.Conn, error)) (*Server, error) {
	c := cfg.Cluster
	if err := c.validate(); err != nil {
		return nil, err
	}
	var refused []string
	if cfg.Options, refused = cfg.Options.ForRole(c.Role); len(refused) > 0 {
		return nil, fmt.Errorf("ps: role %q does not act on %s", c.Role, strings.Join(refused, "; "))
	}
	var (
		own          transport.ServerEntry
		globalShards int
		err          error
	)
	switch c.Role {
	case "":
		cfg.Store, err = NewStoreSharded(initial, opt, cfg.Shards)
	case RoleCoordinator:
		if _, globalShards, err = groupLayout(tensorSizes(initial), cfg.Shards, c.Servers); err == nil {
			cfg.Store, err = NewStoreSharded([]*tensor.Tensor{tensor.New(1)}, optimizer.NewSGD(1), 1)
		}
	default:
		var layout []transport.ServerEntry
		if layout, globalShards, err = groupLayout(tensorSizes(initial), cfg.Shards, c.Servers); err != nil {
			return nil, err
		}
		own = layout[c.Index]
		if cfg.Policy, err = core.NewASP(cfg.Workers); err == nil {
			cfg.Store, err = newStoreRange(initial, opt, globalShards, own.ShardLo, own.ShardHi)
		}
	}
	if err != nil {
		return nil, err
	}
	restored := false
	if cfg.Checkpoint.Dir != "" && CheckpointExists(cfg.Checkpoint.Dir) {
		if err := cfg.Store.RestoreCheckpointDir(cfg.Checkpoint.Dir); err != nil {
			return nil, fmt.Errorf("ps: restore checkpoint: %w", err)
		}
		restored = true
	}
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	s.ln, s.restored = ln, restored
	s.cluster.shards, s.cluster.tensors = globalShards, len(initial)
	go func() { _ = s.Serve(ln) }()
	if c.Role == RoleData || c.Role == RoleBackup {
		if own.Addr = c.Advertise; own.Addr == "" {
			own.Addr = ln.Addr()
		}
		s.runMember(dial, own)
	}
	return s, nil
}

// runMember starts a data server's or backup's background protocol: the
// announce stream that doubles as its liveness watch on the coordinator and,
// for a backup, replication from its primary.
func (s *Server) runMember(dial func(string) (transport.Conn, error), entry transport.ServerEntry) {
	c := s.cfg.Cluster
	backup := c.Role == RoleBackup
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		// Losing the coordinator is fatal by design: this server cannot make
		// progress decisions without it (DESIGN.md §10). A coordinator whose
		// run completed says so on the stream before it stops, and announce
		// returns nil, whenever this server's own workers' Done frames arrive.
		if err := s.announce(dial, entry, backup); err != nil {
			s.fail(fmt.Errorf("ps: %s server lost the coordinator at %s: %w", c.Role, c.Coordinator, err))
		}
	}()
	if backup {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			s.standBy(dial, entry)
		}()
	}
}

// announce registers this member's map entry with the coordinator (as a
// replica's, for a backup) and then holds the connection open as its liveness
// watch on it, until the server stops or the coordinator reports the run
// complete with a Done frame (nil), or the coordinator is lost (the error).
// Losing the coordinator is fatal by design — it is the single serialization
// point for staleness decisions (DESIGN.md §10) — so only the first announce
// retries, with backoff for up to 30 s: an orchestrator may start the whole
// group at once. An explicit rejection is final at once, and once an announce
// has succeeded the coordinator was provably up, so any later connection loss
// means it died.
func (s *Server) announce(dial func(string) (transport.Conn, error), entry transport.ServerEntry, replica bool) error {
	stopped := func() bool {
		select {
		case <-s.stopped:
			return true
		default:
			return false
		}
	}
	announced := false
	err := retry(30*time.Second, 50*time.Millisecond, 1600*time.Millisecond,
		func(err error) bool { return announced || stopped() || isRemote(err) },
		func() error {
			conn, err := dial(s.cfg.Cluster.Coordinator)
			if err != nil {
				return err
			}
			defer conn.Close()
			// Tie the connection to Stop so shutdown unblocks the Recvs below.
			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-s.stopped:
					_ = conn.Close()
				case <-done:
				}
			}()
			if err := submitEntry(conn, transport.MsgServerAnnounce, entry, replica); err != nil {
				return err
			}
			announced = true
			for {
				msg, err := conn.Recv()
				if err != nil {
					return err
				}
				if msg.Type == transport.MsgDone {
					return nil
				}
			}
		})
	if stopped() {
		return nil
	}
	return err
}

// standBy is the backup's replication driver: it streams the primary's
// weights into the standby store and, when the primary stays dead past the
// grace, asks the coordinator to route the primary's shard range to this
// server. After promotion the backup IS the shard owner — it has been serving
// the (now current) store all along.
func (s *Server) standBy(dial func(string) (transport.Conn, error), entry transport.ServerEntry) {
	c := s.cfg.Cluster
	err := replicate(func() (transport.Conn, error) { return dial(c.Primary) },
		s.cfg.Store, c.ReplicateEvery, c.ReplicateGrace, s.reg, s.stopped)
	if err == nil {
		return // Stop
	}
	if err != errPrimaryDead {
		s.fail(fmt.Errorf("ps: backup replication: %w", err))
		return
	}
	conn, err := dial(c.Coordinator)
	if err != nil {
		s.fail(fmt.Errorf("ps: backup cannot reach the coordinator to request promotion: %w", err))
		return
	}
	defer conn.Close()
	if err := submitEntry(conn, transport.MsgPromote, entry, false); err != nil {
		s.fail(fmt.Errorf("ps: promotion request: %w", err))
		return
	}
	s.promoted.Store(true)
}

// fail records a fatal loss and closes Failed.
func (s *Server) fail(err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		close(s.failed)
	})
}

// Failed returns a channel closed when a fatal condition ended this server's
// usefulness — a data server or backup losing its coordinator, or a backup
// unable to complete promotion. A flat server and a coordinator never close
// it. FailureErr reports the cause after it closes.
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

// Promoted reports whether this backup completed promotion to shard owner.
func (s *Server) Promoted() bool { return s.promoted.Load() }

// Restored reports whether Start resumed from an existing checkpoint.
func (s *Server) Restored() bool { return s.restored }

// Store returns the store the server serves: the whole model on a flat
// server, its shard range on a data server or backup, a placeholder on a
// coordinator.
func (s *Server) Store() *Store { return s.cfg.Store }
