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
// completion. *ClusterClient implements it on every route, and a test drives
// the loop with a scripted fake.
type WorkerClient interface {
	Pull() ([]*tensor.Tensor, int64, error)
	// PushSlot returns tensors shaped like grads that the next push is sent
	// from without a copy, or nil (ClusterClient.PushSlot).
	PushSlot(grads []*tensor.Tensor) []*tensor.Tensor
	// PushFactors reports whether the next push takes a gradient as its two
	// factors (ClusterClient.PushFactors).
	PushFactors() bool
	// Push pushes a gradient and waits for the release; factors, nil unless
	// PushFactors said so, hands gradients on unmultiplied, and next says the
	// loop's next call is Pull, which the push may bring along
	// (ClusterClient.Push).
	Push(grads []*tensor.Tensor, factors []tensor.Factors, baseVersion int64, iteration int, next bool) error
	Done() error
	Close() error
	Traffic() (pushed, pulled int64)
	StartHeartbeats(interval time.Duration) (stop func())
	Codec() string
}

// Topology is how a worker reaches the parameter store.
type Topology int

const (
	// Flat links the server at Route.Addr.
	Flat Topology = iota
	// Tree fetches the aggregation-tree layout from the root at Route.Addr
	// and links the relay covering the worker, or the root when none does
	// (DESIGN.md §11).
	Tree
	// Group fetches the cluster map from the coordinator at Route.Addr and
	// links the coordinator and every data server (DESIGN.md §10).
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
	// Retry is the route's one patience: how long Connect keeps retrying
	// through transport failures, on a first connect and a rejoin alike, and
	// how long a dead data-only link may take to recover mid-run. Zero is one
	// connect attempt, and 15s for a data link. A Group connect also waits
	// for a complete map either way.
	Retry time.Duration
}

// Connect reaches the parameter store along r and returns a registered
// client. With rejoin set the sync link registers with a Rejoin carrying
// lastVersion, the last store version the worker saw; a group's data servers
// get a fresh registration, which supersedes the session the worker held
// there. Every attempt resolves the route afresh, so a Tree worker orphaned
// by a dead relay lands on the re-parented layout. A peer that is not
// speaking the protocol (transport.IsWireMismatch) or that rejects the
// request outright (RemoteError) is never retried.
func Connect(r Route, rejoin bool, lastVersion int64) (WorkerClient, error) {
	if r.Dial == nil {
		return nil, fmt.Errorf("ps: route needs a dialer")
	}
	permanent := func(err error) bool { return transport.IsWireMismatch(err) || isRemote(err) }
	var c *ClusterClient
	err := retry(r.Retry, 100*time.Millisecond, 3200*time.Millisecond, permanent, func() (err error) {
		c, err = r.open(rejoin, lastVersion)
		return err
	})
	if err != nil {
		if r.Retry > 0 && !permanent(err) {
			err = fmt.Errorf("gave up after %v: %w", r.Retry, err)
		}
		return nil, err
	}
	return c, nil
}

// open is one connect attempt: resolve the route, then register on the sync
// link and on each data server the map lists.
func (r Route) open(rejoin bool, lastVersion int64) (*ClusterClient, error) {
	addr, m, err := r.resolve()
	if err != nil {
		return nil, err
	}
	c := &ClusterClient{route: r}
	c.adoptMapHeader(m)
	if r.Metrics != nil {
		c.metrics = newClientMetrics(r.Metrics)
	}
	// A coordinator's link carries no gradients: it speaks whatever the
	// coordinator does.
	syncCodec := r.Compression
	if len(m.Servers) > 0 {
		syncCodec = compress.Config{Codec: compress.Auto}
	}
	l, err := c.openLink(transport.ServerEntry{Addr: addr}, syncCodec, rejoin, lastVersion)
	if err != nil {
		return nil, err
	}
	c.links = append(c.links, l)
	for _, e := range m.Servers {
		if l, err = c.openLink(e, r.Compression, false, 0); err != nil {
			c.Close()
			return nil, err
		}
		c.links = append(c.links, l)
	}
	if len(m.Servers) == 0 {
		c.shards = c.links[0].client.serverShards
	}
	if err := r.checkShards(c.shards); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// resolve turns r into the servers a worker links to: the sync link's
// address, and on a Group route the complete cluster map whose data servers
// the other links reach. Flat links the server at Addr, Tree the relay
// covering the worker in the layout the root at Addr serves, or the root when
// none does.
func (r Route) resolve() (string, transport.Message, error) {
	switch r.Topology {
	case Tree:
		conn, err := r.Dial(r.Addr)
		if err != nil {
			return "", transport.Message{}, err
		}
		layout, err := FetchTreeLayout(conn)
		conn.Close()
		if err != nil {
			return "", transport.Message{}, err
		}
		if covering := layout.Covering(r.Worker); covering != "" {
			return covering, transport.Message{}, nil
		}
	case Group:
		m, err := r.waitForMap()
		return r.Addr, m, err
	}
	return r.Addr, transport.Message{}, nil
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
// a relay's pass-through pulls, a coordinator's evaluation snapshot. Its
// pulls are gated on the version it holds (Client.Pull). conn is closed on
// failure.
func OpenReplica(conn transport.Conn) (*Client, error) {
	c, err := NewClientCompressed(conn, 0, compress.Config{Codec: compress.Auto})
	if err == nil {
		c.replica = true
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
