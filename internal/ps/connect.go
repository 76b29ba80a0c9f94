package ps

import (
	"errors"
	"fmt"
	"time"

	"dssp/internal/compress"
	"dssp/internal/obs"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// WorkerClient is the worker side of Algorithm 1 as a training loop sees it:
// pull the weights, push a gradient and wait for the release, report
// completion. *Client (one server, directly or through a relay) and
// *ClusterClient (a server group) implement it, which is what lets one loop
// serve every topology and lets a test drive that loop with a scripted fake.
type WorkerClient interface {
	Pull() ([]*tensor.Tensor, int64, error)
	PushAndWait(grads []*tensor.Tensor, baseVersion int64, iteration int) error
	Done() error
	Close() error
	Traffic() (pushed, pulled int64)
	StartHeartbeats(interval time.Duration) (stop func())
	Codec() string
}

// Topology is how a worker reaches the parameter store.
type Topology int

const (
	// Flat dials the server at Route.Addr and registers there.
	Flat Topology = iota
	// Tree fetches the aggregation-tree layout from the root at Route.Addr
	// and registers through the relay covering the worker, or at the root
	// when none does (DESIGN.md §11).
	Tree
	// Group fetches the cluster map from the coordinator at Route.Addr and
	// opens a session on it and on every data server (DESIGN.md §10).
	Group
)

// Route is everything Connect needs to turn a worker id into a registered
// client. Topology is a property of the route, not of the loop that uses the
// client.
type Route struct {
	// Dial opens a connection to an address — TCP in production, a table of
	// channel listeners in-process.
	Dial func(addr string) (transport.Conn, error)
	// Addr is the server, the tree's root, or the group's coordinator.
	Addr     string
	Worker   int
	Topology Topology
	// Compression is the gradient codec to negotiate; compress.Auto adopts
	// the server's.
	Compression compress.Config
	// Shards, when positive, is the parameter-store shard count the worker
	// expects (group-wide on a Group route); a mismatch fails the connect.
	Shards int
	// Metrics, when set, carries the worker-side latency series.
	Metrics *obs.Registry
	// Retry is the route's patience. Flat and Tree: how long Connect keeps
	// redialing through transport failures (0 = one attempt). Group: how long
	// a dead data link may take to recover mid-run (0 = the ClusterClient
	// default); the connect itself waits for a complete map either way.
	Retry time.Duration
}

// ErrNoRejoin is Connect's answer to a rejoin on a route that cannot use
// one. A ClusterClient recovers its data links itself, and the one loss it
// surfaces — the coordinator, the single serialization point — is final by
// design (DESIGN.md §10), so the caller should fail with the error that made
// it ask.
var ErrNoRejoin = errors.New("ps: route does not rejoin")

// Connect reaches the parameter store along r and returns a registered
// client. With rejoin set the registration is a Rejoin carrying lastVersion,
// the last store version the worker saw. Every attempt resolves the route
// afresh, so a Tree worker orphaned by a dead relay lands on the re-parented
// layout. A peer that is not speaking the protocol (transport.IsWireMismatch)
// is permanent and never retried.
func Connect(r Route, rejoin bool, lastVersion int64) (WorkerClient, error) {
	if r.Dial == nil {
		return nil, fmt.Errorf("ps: route needs a dialer")
	}
	if r.Topology == Group {
		if rejoin {
			return nil, ErrNoRejoin
		}
		c, err := NewClusterClient(r.Dial, r.Addr, r.Worker, ClusterClientConfig{
			Compression: r.Compression, RecoverTimeout: r.Retry})
		if err != nil {
			return nil, err
		}
		if err := r.checkShards(c.globalShards); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	var client *Client
	err := retry(r.Retry, 100*time.Millisecond, 3200*time.Millisecond, transport.IsWireMismatch, func() (err error) {
		client, err = r.register(rejoin, lastVersion)
		return err
	})
	if err != nil {
		if r.Retry > 0 && !transport.IsWireMismatch(err) {
			err = fmt.Errorf("gave up after %v: %w", r.Retry, err)
		}
		return nil, err
	}
	return client, nil
}

// register is one Flat or Tree connect attempt.
func (r Route) register(rejoin bool, lastVersion int64) (*Client, error) {
	addr := r.Addr
	if r.Topology == Tree {
		conn, err := r.Dial(r.Addr)
		if err != nil {
			return nil, err
		}
		layout, err := FetchTreeLayout(conn)
		conn.Close()
		if err != nil {
			return nil, err
		}
		if covering := layout.Covering(r.Worker); covering != "" {
			addr = covering
		}
	}
	conn, err := r.Dial(addr)
	if err != nil {
		return nil, err
	}
	client, err := NewClientCompressed(conn, r.Worker, r.Compression)
	if err != nil {
		conn.Close()
		return nil, err
	}
	client.Instrument(r.Metrics)
	if rejoin {
		err = client.Rejoin(lastVersion)
	} else {
		err = client.Register()
	}
	if err == nil {
		err = r.checkShards(client.ServerShards())
	}
	if err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// checkShards enforces the worker's shard-count expectation, if it has one.
func (r Route) checkShards(got int) error {
	if r.Shards > 0 && got != r.Shards {
		return fmt.Errorf("ps: worker %d expects %d parameter-store shards, server runs %d", r.Worker, r.Shards, got)
	}
	return nil
}

// OpenReplica registers a read-only replica session on conn: a private
// negative session key outside the worker range, invisible to the policy and
// to completion accounting, pull-only. The codec is whatever the server
// speaks, so a replica reads any store. It is the route of everything that
// wants the weights without being a worker — a backup's replication stream,
// a relay's pass-through pulls, a coordinator's evaluation snapshot. conn is
// closed on failure.
func OpenReplica(conn transport.Conn, deltaPull bool) (*Client, error) {
	c, err := NewClientCompressed(conn, 0, compress.Config{Codec: compress.Auto})
	if err == nil {
		c.SetReplica(true)
		c.SetDeltaPull(deltaPull)
		err = c.Register()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// retry runs op until it succeeds, fails with an error permanent reports
// true for, or budget has passed, sleeping min, 2·min, … capped at max
// between attempts. It returns op's last error. A zero budget is one attempt.
func retry(budget, min, max time.Duration, permanent func(error) bool, op func() error) error {
	deadline := time.Now().Add(budget)
	for backoff := min; ; {
		err := op()
		if err == nil || permanent(err) || !time.Now().Before(deadline) {
			return err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > max {
			backoff = max
		}
	}
}

// isRemote reports an explicit rejection by the peer (a MsgError reply): a
// decision, which no amount of retrying changes.
func isRemote(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote)
}
