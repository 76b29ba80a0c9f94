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
// place a flat server, a coordinator or a data server is made (DESIGN.md
// §10), whether over TCP (dssp.Serve) or in process (the trainer).
// initial is the full model and opt the optimizer its store steps with; dial
// reaches the other members of a group.
//
// Start validates the role, refusing by name every option set in cfg that
// the role does not act on (Options.ForRole). It builds the role's store and,
// for a data server, its policy — a local ASP that releases every fragment
// once ticketed, the paradigm running at the coordinator; a flat server and a
// coordinator run cfg.Policy. A coordinator lays the group out (groupLayout)
// and its store holds no tensors, so the version bookkeeping the paradigm
// gates on exists without carrying any weights. A data server first
// announces itself to the coordinator, naming its range by index, on the
// stream that is its liveness watch of it (joinGroup): the reply is the range
// and who owns it, and its store is that range of initial, which must be the
// coordinator's model. It restores the checkpoint in cfg.Checkpoint.Dir when
// there is one, and serves ln. A data server then owns its range or stands by
// for the range's owner as the coordinator says on the stream (runMember); it
// closes Failed on a fatal loss.
//
// Once Start returns a server, the server owns ln and Stop closes it; on an
// error the caller keeps it.
func Start(cfg ServerConfig, initial []*tensor.Tensor, opt *optimizer.SGD, ln transport.Listener, dial func(string) (transport.Conn, error)) (_ *Server, err error) {
	c := cfg.Cluster
	if err := c.validate(); err != nil {
		return nil, err
	}
	var refused []string
	if cfg.Options, refused = cfg.Options.ForRole(c.Role); len(refused) > 0 {
		return nil, fmt.Errorf("ps: role %q does not act on %s", c.Role, strings.Join(refused, "; "))
	}
	var (
		layout       []transport.ServerEntry
		globalShards int
		stream       transport.Conn
		owner, own   transport.ServerEntry
	)
	switch c.Role {
	case "":
		cfg.Store, err = NewStoreSharded(initial, opt, cfg.Shards)
	case RoleCoordinator:
		layout, globalShards, err = groupLayout(tensorSizes(initial), cfg.Shards, c.Servers)
		cfg.Store = new(Store)
	default:
		addr := c.Advertise
		if addr == "" {
			addr = ln.Addr()
		}
		var reply transport.Message
		if stream, reply, err = joinGroup(c, dial, addr); err != nil {
			return nil, err
		}
		// A failed start drops the stream, as a member that died would.
		defer func() {
			if err != nil {
				_ = stream.Close()
			}
		}()
		owner = reply.Servers[0]
		own = owner
		own.Addr = addr
		if len(initial) != reply.Total {
			return nil, fmt.Errorf("ps: the model has %d tensors, the coordinator's %d", len(initial), reply.Total)
		}
		if cfg.Policy, err = core.NewASP(cfg.Workers); err == nil {
			cfg.Store, err = newStoreRange(initial, opt, reply.StoreShards, owner)
		}
	}
	if err != nil {
		return nil, err
	}
	restored := false
	if cfg.Checkpoint.Dir != "" {
		if restored, err = cfg.Store.restoreCheckpoint(cfg.Checkpoint.Dir); err != nil {
			return nil, fmt.Errorf("ps: restore checkpoint: %w", err)
		}
	}
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	s.ln, s.restored, s.entry = ln, restored, own
	s.cluster.layout, s.cluster.shards, s.cluster.tensors = layout, globalShards, len(initial)
	s.cluster.ranges = make([]rangeStreams, len(layout))
	if owner.Addr != own.Addr {
		s.primary.Store(owner.Addr)
	}
	go func() { _ = s.Serve(ln) }()
	if stream != nil {
		s.runMember(stream, dial, own, owner)
	}
	return s, nil
}

// memberPatience is how long a data server keeps retrying its first contact
// with the coordinator: an orchestrator may start the whole group at once, so
// the coordinator may not be up yet.
const memberPatience = 30 * time.Second

// joinGroup announces a data server, served at addr, to c's coordinator as
// range c.Index and returns the announce stream with the coordinator's OK
// reply (announceRange). Only this first contact retries, with backoff for up
// to memberPatience; an explicit rejection is final at once.
func joinGroup(c ClusterConfig, dial func(string) (transport.Conn, error), addr string) (conn transport.Conn, reply transport.Message, err error) {
	err = retry(memberPatience, 50*time.Millisecond, 1600*time.Millisecond, isRemote, func() (err error) {
		if conn, err = dial(c.Coordinator); err != nil {
			return err
		}
		if reply, err = announceRange(conn, c.Index, addr); err != nil {
			_ = conn.Close()
		}
		return err
	})
	if err != nil {
		return nil, reply, fmt.Errorf("ps: data server could not announce range %d to the coordinator at %s: %w", c.Index, c.Coordinator, err)
	}
	return conn, reply, nil
}

// runMember follows a data server's announce stream conn, its liveness watch
// of the coordinator, on which the coordinator says who owns its range
// (follow). Losing the coordinator is fatal by design: it is the single
// serialization point for staleness decisions, and this server cannot make
// progress decisions without it (DESIGN.md §10). A coordinator whose run
// completed says so on the stream before it stops, and follow returns nil.
func (s *Server) runMember(conn transport.Conn, dial func(string) (transport.Conn, error), own, owner transport.ServerEntry) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		// Tie the stream to Stop so shutdown unblocks its Recvs.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-s.stopped:
			case <-done:
			}
			_ = conn.Close()
		}()
		if err := s.follow(conn, dial, own, owner); err != nil && !s.isStopped() {
			c := s.cfg.Cluster
			s.fail(fmt.Errorf("ps: %s server lost the coordinator at %s: %w", c.Role, c.Coordinator, err))
		}
	}()
}

// follow acts on the coordinator's word on the announce stream conn, whose
// reply named owner the owner of this member's range, until the coordinator
// reports the run complete (nil) or the stream is lost (its error). While
// another member owns the range this one stands by, replicating the owner
// (Status().Primary); a Promote naming another member moves the replication
// there, and one naming this member ends it: the range is this member's
// (Status().Promoted). A member that announced as a standby had no workers
// but those a promotion sent it, so the coordinator's Done ends its run,
// after its replication's last pull; one that owned the range from its
// announce ends through its workers' Done.
func (s *Server) follow(conn transport.Conn, dial func(string) (transport.Conn, error), entry, owner transport.ServerEntry) error {
	ended := make(chan struct{})
	var rep *replication
	// halt ends the replication under way, if any, and waits for it: at once
	// when stop is set, else after the last pull that ended permits.
	halt := func(stop bool) {
		if rep != nil {
			if stop {
				close(rep.stop)
			}
			<-rep.done
			rep = nil
		}
	}
	defer halt(true)
	standby := owner.Addr != entry.Addr
	if standby {
		rep = s.replicateFrom(dial, owner.Addr, entry, ended)
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			return err
		}
		switch {
		case msg.Type == transport.MsgPromote && len(msg.Servers) == 1:
			halt(true)
			if next := msg.Servers[0]; next.Addr == entry.Addr {
				s.promoted.Store(true)
			} else {
				rep = s.replicateFrom(dial, next.Addr, entry, ended)
			}
		case msg.Type == transport.MsgDone:
			if standby {
				close(ended)
				halt(false)
				s.completeRun()
			}
			return nil
		}
	}
}

// replication is one running replicate loop: closing stop ends it, and done
// closes once it has.
type replication struct{ stop, done chan struct{} }

// replicateFrom starts replicating the owner at addr into this server's
// store, the replica session naming self, until the replication is stopped or
// ended closes (replicate). A failed install fails the server.
func (s *Server) replicateFrom(dial func(string) (transport.Conn, error), addr string, self transport.ServerEntry, ended <-chan struct{}) *replication {
	s.primary.Store(addr)
	r := &replication{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		err := replicate(func() (transport.Conn, error) { return dial(addr) },
			s.cfg.Store, replicateEvery, s.reg, r.stop, ended, []transport.ServerEntry{self})
		if err != nil {
			s.fail(fmt.Errorf("ps: standby replication: %w", err))
		}
	}()
	return r
}

// isStopped reports whether Stop has begun.
func (s *Server) isStopped() bool { return isClosed(s.stopped) }

// isClosed reports whether ch has closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// fail records a fatal loss and closes Failed.
func (s *Server) fail(err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		close(s.failed)
	})
}

// Failed returns a channel closed when a fatal condition ended this server's
// usefulness — a data server losing its coordinator, or a standby's
// replication installing what its store cannot hold. A flat server and a
// coordinator never close it. FailureErr reports the cause after it closes.
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

// Store returns the store the server serves: the whole model on a flat
// server, its shard range on a data server, and on a coordinator a
// store of no tensors whose version counts the metadata pushes.
func (s *Server) Store() *Store { return s.cfg.Store }
