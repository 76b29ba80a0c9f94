package ps

import (
	"fmt"
	"slices"
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

// mapTimeout bounds how long a connect to a coordinator retries its map
// fetch until the coordinator serves a complete map (all shards owned).
const mapTimeout = 10 * time.Second

// dataLinkPatience is how long a dead data-only link may take to recover
// when Route.Retry is zero. It must exceed the backups' promotion grace, or a
// worker gives up just before the new owner appears.
const dataLinkPatience = 15 * time.Second

// A backup polls its primary every replicateEvery (the gated pull makes an
// idle poll nearly free: an unchanged primary answers with one payload-free
// frame) and requests promotion once the primary stays unreachable past
// replicateGrace.
const (
	replicateEvery = 25 * time.Millisecond
	replicateGrace = 2 * time.Second
)

// dataLinkPatience > replicateGrace, checked by the compiler: a negative
// constant does not convert to uint64.
const _ = uint64(dataLinkPatience - replicateGrace - 1)

// ClusterClientConfig tunes NewClusterClient.
type ClusterClientConfig struct {
	// Compression is the gradient codec spoken with the data servers (the
	// coordinator's link always negotiates whatever the coordinator speaks —
	// its pushes carry no payload worth compressing).
	Compression compress.Config
}

// link is one registered connection of a ClusterClient: the server it
// reaches (with the shard range a data server serves), the protocol client on
// it, and the server's last pulled version (the base a fragment push claims).
type link struct {
	entry   transport.ServerEntry
	client  *Client
	version int64
}

// stop closes l's connection and ends its heartbeats. The client's leases
// are left to whoever ends them: what the last Pull handed out, and the
// gradients a push is computing in the push slot, may still be read.
func (l *link) stop() error {
	err := l.client.conn.Close()
	l.client.stopHeartbeats()
	return err
}

// linkReply is one link's part of a Pull: the tensors and version its reply
// carried, or the error its request or reply met.
type linkReply struct {
	ts      []*tensor.Tensor
	version int64
	err     error
}

// ClusterClient is a worker's one client, on every route (DESIGN.md §6). It
// holds a link per server the route resolves to; links[0] is the sync link,
// the one whose push the synchronization policy gates. On a route to a
// coordinator (PROTOCOL.md §5b) the sync link is the coordinator, which
// carries no tensors, and every other link is a data server carrying its
// shard range's fragment of each pull and push. A route to a flat server or
// through a relay is the one-link case: the server (or relay) is sync and
// data link at once, and a push is the one frame carrying the whole gradient
// under the caller's base version.
//
// Like Client, a ClusterClient belongs to one worker goroutine.
//
// Failures follow one rule. A dead data-only link recovers inside the
// client: it refetches the map until a dialable owner for the same shard
// range appears (the primary back up, or its promoted backup) and retries the
// operation, so a data-server crash costs the worker a pause, not the run. A
// dead sync link goes to the caller, whose way back is Connect with rejoin
// set (DESIGN.md §10).
type ClusterClient struct {
	route Route
	links []*link

	mapVersion int64
	// total is a group's tensor count, 0 on a one-link route: its links
	// register in cluster mode exactly when it is set.
	total int

	assembled []*tensor.Tensor
	parts     []linkReply
	// retired are the clients of data links replaced since the last Pull:
	// their connections are closed, but the tensors that Pull handed out may
	// alias their receive buffers, and the gradients being pushed their push
	// slots, so both leases run until the next.
	retired []*Client
	// slots is PushSlot's result, reused.
	slots []*tensor.Tensor
	// metrics, when the route has a registry, times the worker-observed pull
	// and push-round-trip latencies. Nil costs one pointer test.
	metrics *clientMetrics
}

// NewClusterClient connects worker to the group coordinated at coordAddr in
// one attempt: Connect to coordAddr with no Retry. dial opens a
// connection to an advertised address — injectable so in-process transports
// (tests, the trainer) and TCP share the code.
func NewClusterClient(dial func(addr string) (transport.Conn, error), coordAddr string, worker int, cfg ClusterClientConfig) (*ClusterClient, error) {
	c, err := Connect(Route{Dial: dial, Addr: coordAddr, Worker: worker, Compression: cfg.Compression}, false, 0)
	if err != nil {
		return nil, err
	}
	return c.(*ClusterClient), nil
}

// adoptMapHeader records the group-wide constants a (complete) map carries.
func (c *ClusterClient) adoptMapHeader(m transport.Message) {
	c.mapVersion = m.MapVersion
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
	msg, err := requestMap(conn, false)
	if err != nil {
		return transport.Message{}, fmt.Errorf("ps: cluster map from %s: %w", addr, err)
	}
	return msg, nil
}

// requestMap sends one ClusterMap request on conn, a dedicated connection —
// the tree-layout request (Relay set) when layout is, a plain map fetch
// otherwise — and returns the ClusterMap reply. A refusal comes back as a
// RemoteError.
func requestMap(conn transport.Conn, layout bool) (transport.Message, error) {
	if err := conn.Send(transport.Message{Type: transport.MsgClusterMap, Relay: layout}); err != nil {
		return transport.Message{}, fmt.Errorf("request: %w", err)
	}
	msg, err := conn.Recv()
	switch {
	case err != nil:
		return transport.Message{}, fmt.Errorf("reply: %w", err)
	case msg.Type == transport.MsgError:
		return transport.Message{}, &RemoteError{Msg: msg.Error}
	case msg.Type != transport.MsgClusterMap:
		return transport.Message{}, fmt.Errorf("unexpected %v reply", msg.Type)
	}
	return msg, nil
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

// fetchMap is one map fetch from the route's coordinator that must come back
// complete.
func (r Route) fetchMap() (transport.Message, error) {
	m, err := FetchClusterMap(r.Dial, r.Addr)
	if err == nil {
		err = validateMap(m)
	}
	return m, err
}

// waitForMap fetches the map until it validates complete or mapTimeout
// passes. Transport failures are retried (the coordinator may still be
// starting); an explicit server rejection ("not a cluster coordinator") is
// permanent and returned immediately.
func (r Route) waitForMap() (m transport.Message, err error) {
	err = retry(mapTimeout, 5*time.Millisecond, 200*time.Millisecond, isRemote, func() (err error) {
		m, err = r.fetchMap()
		return err
	})
	return m, err
}

// openLink dials e.Addr and registers the worker there under codec cfg: a
// Rejoin carrying lastVersion when rejoin is set, a Register otherwise. When
// the route resolved to a cluster map the registration is in cluster mode.
func (c *ClusterClient) openLink(e transport.ServerEntry, cfg compress.Config, rejoin bool, lastVersion int64) (*link, error) {
	conn, err := c.route.Dial(e.Addr)
	if err != nil {
		return nil, fmt.Errorf("ps: dial %s: %w", e.Addr, err)
	}
	client, err := NewClientCompressed(conn, c.route.Worker, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	client.cluster = c.total > 0
	if rejoin {
		err = client.rejoin(lastVersion)
	} else {
		err = client.Register()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ps: register with %s: %w", e.Addr, err)
	}
	return &link{entry: e, client: client}, nil
}

// recover replaces dead data link i: it refetches the map until the entry
// owning the same shard range is dialable again — the restarted primary, or
// the backup a promotion routed in — and registers a fresh session there.
// cause is returned (wrapped) if the route's patience runs out first.
func (c *ClusterClient) recover(i int, cause error) error {
	old := c.links[i]
	old.stop()
	c.retired = append(c.retired, old.client)
	patience := c.route.Retry
	if patience <= 0 {
		patience = dataLinkPatience
	}
	lo, hi := old.entry.ShardLo, old.entry.ShardHi
	err := retry(patience, 5*time.Millisecond, 100*time.Millisecond, isRemote, func() error {
		m, err := c.route.fetchMap()
		if err != nil {
			return err
		}
		for _, e := range m.Servers {
			if e.ShardLo != lo || e.ShardHi != hi {
				continue
			}
			l, err := c.openLink(e, c.route.Compression, false, 0)
			if err == nil {
				c.adoptMapHeader(m)
				c.links[i] = l
			}
			return err
		}
		return fmt.Errorf("ps: cluster map no longer lists shards [%d, %d)", lo, hi)
	})
	if err != nil {
		return fmt.Errorf("ps: data link for shards [%d, %d) did not recover: %w (cause: %v)", lo, hi, err, cause)
	}
	return nil
}

// firstData is the index of the first link that carries tensors: the one
// link of a one-link route, the first data server behind a coordinator.
func (c *ClusterClient) firstData() int { return min(1, len(c.links)-1) }

// fragment is the part of a full list, of tensors or of their factors, that
// link i of c carries: all of it on a one-link route, none on a group's
// coordinator, the shard range's entries on a data server; nil of nil.
func fragment[T any](c *ClusterClient, i int, ts []T) []T {
	switch {
	case len(c.links) == 1 || ts == nil:
		return ts
	case i == 0:
		return nil
	}
	e := c.links[i].entry
	return ts[e.TensorLo:e.TensorHi]
}

// Pull assembles the global weights from the links that carry them and
// returns them with the minimum version seen — the conservative base for
// this iteration's staleness accounting, as a single server labels its reply
// with the version read before any shard. Every data link's request goes out
// before any reply is read, so the data servers answer in parallel. The
// returned slice and tensors follow Client.Pull's read-only contract — valid
// until the next Pull or Close, a link replaced in between notwithstanding. A
// dead data-only link recovers once the replies already in flight on the
// other links are read, and the pull against its replacement re-runs for that
// range only (weights are idempotent reads).
func (c *ClusterClient) Pull() ([]*tensor.Tensor, int64, error) {
	if c.metrics == nil {
		return c.pull()
	}
	start := time.Now()
	params, version, err := c.pull()
	if err == nil {
		c.metrics.pullSeconds.Observe(time.Since(start).Seconds())
	}
	return params, version, err
}

// pull implements Pull. A failure on the sync link, the one link of a
// one-link route, goes to the caller.
func (c *ClusterClient) pull() ([]*tensor.Tensor, int64, error) {
	c.releaseRetired()
	if len(c.parts) != len(c.links) {
		c.parts = make([]linkReply, len(c.links))
	}
	for i := c.firstData(); i < len(c.links); i++ {
		c.parts[i] = linkReply{err: c.links[i].client.requestPull()}
	}
	for i := c.firstData(); i < len(c.links); i++ {
		p := &c.parts[i]
		if p.err == nil {
			p.ts, p.version, p.err = c.links[i].client.receivePull()
		}
		if p.err != nil && i == 0 {
			return nil, 0, p.err
		}
	}
	out, version := c.assembled[:0], int64(-1)
	for i := c.firstData(); i < len(c.links); i++ {
		p := &c.parts[i]
		for p.err != nil {
			if err := c.recover(i, p.err); err != nil {
				return nil, 0, err
			}
			p.ts, p.version, p.err = c.links[i].client.Pull()
		}
		if e := c.links[i].entry; i > 0 && len(p.ts) != e.TensorHi-e.TensorLo {
			return nil, 0, fmt.Errorf("ps: data server %s returned %d tensors for range [%d, %d)",
				e.Addr, len(p.ts), e.TensorLo, e.TensorHi)
		}
		out = append(out, p.ts...)
		c.links[i].version = p.version
		if version < 0 || p.version < version {
			version = p.version
		}
		*p = linkReply{}
	}
	c.assembled = out
	return out, version, nil
}

// Push pushes one global gradient and blocks until the paradigm releases
// the worker. The fragments fan out to the data-only links first
// (pushAsync on each, then one waitOK each — an OK from a data server means
// "fragment ticketed", and every later pull on that server waits for its
// apply, so by the time the sync push goes out, this iteration's bytes are
// in every pull that follows a release; BSP's all-updates-visible guarantee
// reduces to the single-server argument). The sync push, under
// baseVersion, is the one the synchronization policy gates: a metadata-only
// ticket to a coordinator, the whole gradient on a one-link route.
//
// next says the worker's next call is Pull. Where the sync link's server
// offered Prefetch at registration — a worker's own session on a flat server
// — the push then asks for the next weights behind its OK, and that Pull
// sends nothing and only receives them: one round trip an iteration instead
// of two. Every other server offers none, and next changes nothing.
//
// factors, unless nil, is aligned with grads and hands each gradient whose
// entry is set on as the product of its two factors, which the encode
// computes itself (compress.Compressor.CompressInto): only where PushFactors
// said so, grads[i] then standing for the gradient's shape and storage.
//
// A data-link failure recovers and re-sends that fragment; a fragment whose
// OK was lost in the crash may therefore apply twice, the same at-least-once
// semantics a rejoin has. A sync-link failure goes to the caller.
func (c *ClusterClient) Push(grads []*tensor.Tensor, factors []tensor.Factors, baseVersion int64, iteration int, next bool) error {
	if c.metrics == nil {
		return c.push(grads, factors, baseVersion, iteration, next)
	}
	start := time.Now()
	err := c.push(grads, factors, baseVersion, iteration, next)
	if err == nil {
		c.metrics.pushRTTSeconds.Observe(time.Since(start).Seconds())
		c.metrics.iterations.Inc()
	}
	return err
}

// PushAndWait is Push with next unset.
func (c *ClusterClient) PushAndWait(grads []*tensor.Tensor, baseVersion int64, iteration int) error {
	return c.Push(grads, nil, baseVersion, iteration, false)
}

// push implements Push.
func (c *ClusterClient) push(grads []*tensor.Tensor, factors []tensor.Factors, baseVersion int64, iteration int, next bool) error {
	if len(c.links) > 1 && len(grads) != c.total {
		return fmt.Errorf("ps: cluster push carries %d tensors, model has %d", len(grads), c.total)
	}
	var failed []int
	for i := 1; i < len(c.links); i++ {
		l := c.links[i]
		if l.client.pushAsync(fragment(c, i, grads), fragment(c, i, factors), l.version, iteration) != nil {
			failed = append(failed, i)
		}
	}
	for i := 1; i < len(c.links); i++ {
		if !slices.Contains(failed, i) && c.links[i].client.waitOK() != nil {
			failed = append(failed, i)
		}
	}
	for _, i := range failed {
		if err := c.retryFragment(i, grads, factors, iteration); err != nil {
			return err
		}
	}
	return c.links[0].client.pushAndWait(fragment(c, 0, grads), fragment(c, 0, factors), baseVersion, iteration, next)
}

// retryFragment recovers link i and re-sends its fragment until it lands.
func (c *ClusterClient) retryFragment(i int, grads []*tensor.Tensor, factors []tensor.Factors, iteration int) error {
	err := fmt.Errorf("ps: fragment push to %s failed", c.links[i].entry.Addr)
	for {
		if rerr := c.recover(i, err); rerr != nil {
			return rerr
		}
		l := c.links[i]
		if err = l.client.pushAsync(fragment(c, i, grads), fragment(c, i, factors), l.version, iteration); err == nil {
			err = l.client.waitOK()
		}
		if err == nil {
			return nil
		}
	}
}

// PushSlot is Client.PushSlot over the links that carry gradients: entry i
// is a tensor of the push slot of the link carrying tensor i, nil where that
// link has none free now; the result is nil when no link has one. It is
// reused by the next call.
func (c *ClusterClient) PushSlot(grads []*tensor.Tensor) []*tensor.Tensor {
	if len(c.links) > 1 && len(grads) != c.total {
		return nil
	}
	if len(c.slots) != len(grads) {
		c.slots = make([]*tensor.Tensor, len(grads))
	}
	found, lo := false, 0
	for i := c.firstData(); i < len(c.links); i++ {
		part := fragment(c, i, grads)
		dst := c.slots[lo : lo+len(part)]
		lo += len(part)
		if views := c.links[i].client.PushSlot(part); views != nil {
			copy(dst, views)
			found = true
		} else {
			clear(dst)
		}
	}
	if !found {
		return nil
	}
	return c.slots
}

// PushFactors reports whether Push takes gradients as their factors: where
// every link that carries gradients encodes them under fp16, whose encode
// runs a product and itself in one pass (compress.Compressor.CompressInto).
// Asked before every pass, like PushSlot.
func (c *ClusterClient) PushFactors() bool {
	for i := c.firstData(); i < len(c.links); i++ {
		if c.links[i].client.cfg.Codec != compress.FP16 {
			return false
		}
	}
	return true
}

// Done reports completion on every data-only link and then on the sync
// link. A coordinator hears last because its completion may end the group: a
// psserver coordinator exits once every worker is done, and a data server
// that loses it before its own workers' Done frames arrive fails.
func (c *ClusterClient) Done() error {
	var err error
	for i := len(c.links) - 1; i >= 0; i-- {
		if derr := c.links[i].client.Done(); err == nil {
			err = derr
		}
	}
	return err
}

// Traffic sums the payload bytes pushed and pulled across every link.
func (c *ClusterClient) Traffic() (pushed, pulled int64) {
	for _, l := range c.links {
		p, q := l.client.Traffic()
		pushed += p
		pulled += q
	}
	return pushed, pulled
}

// Codec returns the gradient codec negotiated on the links that carry
// gradients (useful when the configuration left it on auto); the last link
// always does.
func (c *ClusterClient) Codec() string { return c.links[len(c.links)-1].client.Codec() }

// Close releases every connection and ends the pull lease and the push slots
// (Client.Close). It returns the sync link's close error.
func (c *ClusterClient) Close() error {
	var err error
	for i, l := range c.links {
		if serr := l.stop(); i == 0 {
			err = serr
		}
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
