package ps

import (
	"fmt"
	"time"

	"dssp/internal/compress"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// RemoteError is an error a server reported explicitly (MsgError) — a
// deliberate rejection, as opposed to a transport failure that retry might
// cure. Callers use errors.As to stop retrying on it.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// mapTimeout bounds how long a new ClusterClient's map fetch retries until
// the coordinator serves a complete map (all shards owned).
const mapTimeout = 10 * time.Second

// ClusterClientConfig tunes a cluster worker's client side.
type ClusterClientConfig struct {
	// Compression is the gradient codec spoken with the data servers (the
	// coordinator leg always negotiates whatever the coordinator speaks —
	// metadata pushes carry no payload worth compressing).
	Compression compress.Config
	// RecoverTimeout bounds how long a failed data link retries — refetching
	// the map and redialing the (possibly promoted) owner — before the
	// iteration fails for good. It must exceed the backups' promotion grace
	// or a worker gives up just before the new owner appears. Default 15s.
	RecoverTimeout time.Duration
}

// dataLink is one registered connection to a data server: the shard range it
// serves, the protocol client on it, and the server's last pulled version
// (the base fragment pushes claim).
type dataLink struct {
	entry   transport.ServerEntry
	conn    transport.Conn
	client  *Client
	version int64
	hbStop  func()
}

// ClusterClient is the worker-side handle to a server group (PROTOCOL.md
// §6): it learns the shard→server map from the coordinator, pulls and pushes
// gradient fragments against every data server, and runs the synchronization
// protocol proper — the push that blocks until the paradigm releases the
// worker — against the coordinator alone.
//
// Like Client, a ClusterClient belongs to one worker goroutine.
//
// Failure handling is asymmetric by design. A dead data link recovers: the
// client refetches the map until a dialable owner for the same shard range
// appears (the primary back up, or its promoted backup) and retries the
// operation, so a data-server crash costs the worker a pause, not the run. A
// dead coordinator does not: it is the single serialization point for
// staleness decisions, and every coordinator-leg error fails fast to the
// caller (DESIGN.md §10).
type ClusterClient struct {
	dial      func(addr string) (transport.Conn, error)
	coordAddr string
	worker    int
	cfg       ClusterClientConfig

	coord     *Client
	coordConn transport.Conn
	links     []*dataLink

	mapVersion   int64
	globalShards int
	total        int

	// lastVersion is the min data-server version of the last Pull — the base
	// the coordinator push claims, in the same units as the coordinator's
	// store version (both count applied global pushes).
	lastVersion int64

	assembled  []*tensor.Tensor
	hbInterval time.Duration
	// retired are the clients of data links replaced since the last Pull:
	// their connections are closed, but the tensors that Pull handed out may
	// alias their receive buffers, and the gradients being pushed their push
	// slots, so both leases run until the next.
	retired []*Client
	// slots is PushSlot's result, reused.
	slots []*tensor.Tensor
}

// NewClusterClient connects worker to the group coordinated at coordAddr:
// it fetches the cluster map (retrying until complete), registers with the
// coordinator in cluster mode, and opens a registered link to every data
// server. dial opens a connection to an advertised address — injectable so
// in-process transports (tests, the trainer) and TCP share the code.
func NewClusterClient(dial func(addr string) (transport.Conn, error), coordAddr string, worker int, cfg ClusterClientConfig) (*ClusterClient, error) {
	if dial == nil {
		return nil, fmt.Errorf("ps: cluster client needs a dialer")
	}
	if cfg.RecoverTimeout <= 0 {
		cfg.RecoverTimeout = 15 * time.Second
	}
	c := &ClusterClient{dial: dial, coordAddr: coordAddr, worker: worker, cfg: cfg}
	m, err := c.waitForMap()
	if err != nil {
		return nil, err
	}
	c.adoptMapHeader(m)

	conn, err := dial(coordAddr)
	if err != nil {
		return nil, fmt.Errorf("ps: dial coordinator %s: %w", coordAddr, err)
	}
	coord, err := NewClientCompressed(conn, worker, compress.Config{Codec: compress.Auto})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	coord.SetCluster(true)
	if err := coord.Register(); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ps: register with coordinator: %w", err)
	}
	c.coord, c.coordConn = coord, conn

	for _, e := range m.Servers {
		link, err := c.openLink(e)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.links = append(c.links, link)
	}
	return c, nil
}

// Worker returns the worker ID this client represents.
func (c *ClusterClient) Worker() int { return c.worker }

// MapVersion returns the version of the cluster map the client last adopted.
func (c *ClusterClient) MapVersion() int64 { return c.mapVersion }

// Servers returns the data-server entries the client currently routes to,
// in shard order.
func (c *ClusterClient) Servers() []transport.ServerEntry {
	out := make([]transport.ServerEntry, len(c.links))
	for i, l := range c.links {
		out[i] = l.entry
	}
	return out
}

// adoptMapHeader records the group-wide constants a (complete) map carries.
func (c *ClusterClient) adoptMapHeader(m transport.Message) {
	c.mapVersion = m.MapVersion
	c.globalShards = m.StoreShards
	c.total = m.Total
}

// FetchClusterMap asks the coordinator at addr for its current map on a
// fresh, dedicated connection — never on a registered session, whose stream
// interleaves asynchronous release OKs with replies. The connection is
// closed before returning.
func FetchClusterMap(dial func(addr string) (transport.Conn, error), addr string) (transport.Message, error) {
	conn, err := dial(addr)
	if err != nil {
		return transport.Message{}, fmt.Errorf("ps: dial coordinator %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.Send(transport.Message{Type: transport.MsgClusterMap}); err != nil {
		return transport.Message{}, fmt.Errorf("ps: cluster map request to %s: %w", addr, err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return transport.Message{}, fmt.Errorf("ps: cluster map from %s: %w", addr, err)
	}
	switch msg.Type {
	case transport.MsgError:
		return transport.Message{}, fmt.Errorf("ps: cluster map from %s: %w", addr, &RemoteError{Msg: msg.Error})
	case transport.MsgClusterMap:
		return msg, nil
	default:
		return transport.Message{}, fmt.Errorf("ps: cluster map from %s: unexpected %v reply", addr, msg.Type)
	}
}

// validateMap checks a map reply for completeness: entries in shard order
// covering every global shard and tensor exactly once. A coordinator whose
// data servers are still announcing serves partial maps; callers retry until
// coverage closes.
func validateMap(m transport.Message) error {
	if m.StoreShards <= 0 || m.Total <= 0 {
		return fmt.Errorf("ps: cluster map lacks the group layout (%d shards, %d tensors)", m.StoreShards, m.Total)
	}
	if len(m.Servers) == 0 {
		return fmt.Errorf("ps: cluster map has no data servers yet")
	}
	wantShard, wantTensor := 0, 0
	for i, e := range m.Servers {
		if e.ShardLo != wantShard || e.TensorLo != wantTensor {
			return fmt.Errorf("ps: cluster map entry %d starts at shard %d/tensor %d, want %d/%d",
				i, e.ShardLo, e.TensorLo, wantShard, wantTensor)
		}
		if e.ShardHi <= e.ShardLo || e.TensorHi <= e.TensorLo {
			return fmt.Errorf("ps: cluster map entry %d has an empty range", i)
		}
		wantShard, wantTensor = e.ShardHi, e.TensorHi
	}
	if wantShard != m.StoreShards || wantTensor != m.Total {
		return fmt.Errorf("ps: cluster map covers %d/%d shards and %d/%d tensors",
			wantShard, m.StoreShards, wantTensor, m.Total)
	}
	return nil
}

// fetchMap is one map fetch that must come back complete.
func (c *ClusterClient) fetchMap() (transport.Message, error) {
	m, err := FetchClusterMap(c.dial, c.coordAddr)
	if err == nil {
		err = validateMap(m)
	}
	return m, err
}

// waitForMap fetches the map until it validates complete or mapTimeout
// passes. Transport failures are retried (the coordinator may still be
// starting); an explicit server rejection ("not a cluster coordinator") is
// permanent and returned immediately.
func (c *ClusterClient) waitForMap() (m transport.Message, err error) {
	err = retry(mapTimeout, 5*time.Millisecond, 200*time.Millisecond, isRemote, func() (err error) {
		m, err = c.fetchMap()
		return err
	})
	return m, err
}

// openLink dials one data server and registers on it.
func (c *ClusterClient) openLink(e transport.ServerEntry) (*dataLink, error) {
	conn, err := c.dial(e.Addr)
	if err != nil {
		return nil, fmt.Errorf("ps: dial data server %s: %w", e.Addr, err)
	}
	client, err := NewClientCompressed(conn, c.worker, c.cfg.Compression)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	client.SetCluster(true)
	if err := client.Register(); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ps: register with data server %s: %w", e.Addr, err)
	}
	link := &dataLink{entry: e, conn: conn, client: client}
	if c.hbInterval > 0 {
		link.hbStop = client.StartHeartbeats(c.hbInterval)
	}
	return link, nil
}

// closeLink tears one link down (idempotent on a nil hbStop).
func closeLink(l *dataLink) {
	if l.hbStop != nil {
		l.hbStop()
	}
	_ = l.conn.Close()
}

// recover replaces a dead data link: it refetches the map until the entry
// owning the same shard range is dialable again — the restarted primary, or
// the backup a promotion routed in — and registers a fresh session there.
// cause is returned (wrapped) if the recover window closes first.
func (c *ClusterClient) recover(i int, cause error) error {
	old := c.links[i].entry
	closeLink(c.links[i])
	c.retired = append(c.retired, c.links[i].client)
	err := retry(c.cfg.RecoverTimeout, 5*time.Millisecond, 100*time.Millisecond, isRemote, func() error {
		m, err := c.fetchMap()
		if err != nil {
			return err
		}
		for _, e := range m.Servers {
			if e.ShardLo != old.ShardLo || e.ShardHi != old.ShardHi {
				continue
			}
			link, err := c.openLink(e)
			if err == nil {
				c.adoptMapHeader(m)
				c.links[i] = link
			}
			return err
		}
		return fmt.Errorf("ps: cluster map no longer lists shards [%d, %d)", old.ShardLo, old.ShardHi)
	})
	if err != nil {
		return fmt.Errorf("ps: data link for shards [%d, %d) did not recover: %w (cause: %v)",
			old.ShardLo, old.ShardHi, err, cause)
	}
	return nil
}

// Pull assembles the global weights from every data server and returns them
// with the minimum data-server version seen — the conservative base for this
// iteration's staleness accounting, exactly as a chunked single-server pull
// reports the smallest chunk version. The returned slice and tensors follow
// Client.Pull's read-only contract — valid until the next Pull or Close, a
// link replaced in between notwithstanding. A dead link recovers mid-pull;
// the pull against its replacement re-runs for that range only (weights are
// idempotent reads).
func (c *ClusterClient) Pull() ([]*tensor.Tensor, int64, error) {
	c.releaseRetired()
	if cap(c.assembled) < c.total {
		c.assembled = make([]*tensor.Tensor, c.total)
	}
	out := c.assembled[:c.total]
	version := int64(-1)
	for i := range c.links {
		ts, v, err := c.linkPull(i)
		if err != nil {
			return nil, 0, err
		}
		e := c.links[i].entry
		if len(ts) != e.TensorHi-e.TensorLo {
			return nil, 0, fmt.Errorf("ps: data server %s returned %d tensors for range [%d, %d)",
				e.Addr, len(ts), e.TensorLo, e.TensorHi)
		}
		copy(out[e.TensorLo:e.TensorHi], ts)
		c.links[i].version = v
		if version < 0 || v < version {
			version = v
		}
	}
	c.lastVersion = version
	return out, version, nil
}

// linkPull pulls one link, recovering it on failure.
func (c *ClusterClient) linkPull(i int) ([]*tensor.Tensor, int64, error) {
	for {
		ts, v, err := c.links[i].client.Pull()
		if err == nil {
			return ts, v, nil
		}
		if rerr := c.recover(i, err); rerr != nil {
			return nil, 0, rerr
		}
	}
}

// PushAndWait pushes one global gradient and blocks until the paradigm
// releases the worker. The fragments fan out to every data server first
// (PushAsync on each link, then one WaitOK per link — an OK from a data
// server means "fragment applied", so by the time the coordinator leg runs,
// this iteration's bytes are visible group-wide; BSP's all-updates-visible
// guarantee reduces to the single-server argument). The final metadata-only
// push to the coordinator is the one the synchronization policy gates.
//
// A data-link failure recovers and re-sends that fragment; a fragment whose
// OK was lost in the crash may therefore apply twice, the same at-least-once
// semantics a single-server reconnect has. A coordinator failure fails fast.
func (c *ClusterClient) PushAndWait(grads []*tensor.Tensor, baseVersion int64, iteration int) error {
	if len(grads) != c.total {
		return fmt.Errorf("ps: cluster push carries %d tensors, model has %d", len(grads), c.total)
	}
	failed := make([]bool, len(c.links))
	anyFailed := false
	for i, l := range c.links {
		if err := l.client.PushAsync(grads[l.entry.TensorLo:l.entry.TensorHi], l.version, iteration); err != nil {
			failed[i] = true
			anyFailed = true
		}
	}
	for i, l := range c.links {
		if failed[i] {
			continue
		}
		if err := l.client.WaitOK(); err != nil {
			failed[i] = true
			anyFailed = true
		}
	}
	if anyFailed {
		for i := range c.links {
			if !failed[i] {
				continue
			}
			if err := c.retryFragment(i, grads, iteration); err != nil {
				return err
			}
		}
	}
	return c.coordPush(baseVersion, iteration)
}

// PushSlot is Client.PushSlot over the data links: entry i is a tensor of
// the push slot of the link owning tensor i, nil where that link has none
// free now; the result is nil when no link has one. It is reused by the next
// call.
func (c *ClusterClient) PushSlot(grads []*tensor.Tensor) []*tensor.Tensor {
	if len(grads) != c.total {
		return nil
	}
	if len(c.slots) != c.total {
		c.slots = make([]*tensor.Tensor, c.total)
	}
	found := false
	for _, l := range c.links {
		lo, hi := l.entry.TensorLo, l.entry.TensorHi
		views := l.client.PushSlot(grads[lo:hi])
		if views == nil {
			clear(c.slots[lo:hi])
			continue
		}
		copy(c.slots[lo:hi], views)
		found = true
	}
	if !found {
		return nil
	}
	return c.slots
}

// retryFragment recovers link i and re-sends its fragment until it lands.
func (c *ClusterClient) retryFragment(i int, grads []*tensor.Tensor, iteration int) error {
	err := fmt.Errorf("ps: fragment push to %s failed", c.links[i].entry.Addr)
	for {
		if rerr := c.recover(i, err); rerr != nil {
			return rerr
		}
		l := c.links[i]
		err = l.client.PushAsync(grads[l.entry.TensorLo:l.entry.TensorHi], l.version, iteration)
		if err == nil {
			err = l.client.WaitOK()
		}
		if err == nil {
			return nil
		}
	}
}

// coordPush runs the synchronization leg: a metadata-only push the
// coordinator's policy gates. Coordinator errors are final.
func (c *ClusterClient) coordPush(baseVersion int64, iteration int) error {
	if err := c.coord.PushAndWait(nil, baseVersion, iteration); err != nil {
		return fmt.Errorf("ps: cluster coordinator: %w", err)
	}
	return nil
}

// Done reports completion to every data server and then to the coordinator.
// The coordinator hears last because its completion may end the group: a
// psserver coordinator exits once every worker is done, and a data server
// that loses it before its own workers' Done frames arrive fails.
func (c *ClusterClient) Done() error {
	var err error
	for _, l := range c.links {
		if derr := l.client.Done(); err == nil {
			err = derr
		}
	}
	if cerr := c.coord.Done(); err == nil {
		err = cerr
	}
	return err
}

// StartHeartbeats begins liveness heartbeats on the coordinator link and
// every data link, and returns a stop function. Links recovered later
// inherit the interval.
func (c *ClusterClient) StartHeartbeats(interval time.Duration) (stop func()) {
	c.hbInterval = interval
	coordStop := c.coord.StartHeartbeats(interval)
	for _, l := range c.links {
		l.hbStop = l.client.StartHeartbeats(interval)
	}
	return func() {
		coordStop()
		for _, l := range c.links {
			if l.hbStop != nil {
				l.hbStop()
			}
		}
	}
}

// Traffic sums the payload bytes pushed and pulled across every link,
// coordinator included.
func (c *ClusterClient) Traffic() (pushed, pulled int64) {
	pushed, pulled = c.coord.Traffic()
	for _, l := range c.links {
		p, q := l.client.Traffic()
		pushed += p
		pulled += q
	}
	return pushed, pulled
}

// Codec returns the gradient codec negotiated on the data links (useful when
// the configuration left it on auto).
func (c *ClusterClient) Codec() string {
	if len(c.links) == 0 {
		return ""
	}
	return c.links[0].client.Codec()
}

// Close releases every connection and ends the pull lease and the push slots
// (Client.Close).
func (c *ClusterClient) Close() error {
	var err error
	if c.coordConn != nil {
		err = c.coordConn.Close()
	}
	for _, l := range c.links {
		closeLink(l)
		l.client.endLeases()
	}
	c.releaseRetired()
	return err
}

// releaseRetired ends the pull leases and push slots of the links replaced
// since the last Pull.
func (c *ClusterClient) releaseRetired() {
	for i, client := range c.retired {
		client.endLeases()
		c.retired[i] = nil
	}
	c.retired = c.retired[:0]
}
