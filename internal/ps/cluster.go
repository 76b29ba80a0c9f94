package ps

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// This file holds the server-group (cluster) substrate: the roles and the one
// role struct, the partition arithmetic that assigns contiguous runs of
// global store shards to data servers, the range-restricted store a data
// server runs, the live weight install an owner→standby replication stream
// lands on, and the coordinator's side of the group protocol.
//
// The cluster split keeps the paradigm semantics of conf_icdcs_ZhaoALC19
// centralized: data servers apply gradient fragments under a local ASP
// policy (release = "fragment ticketed"; a pull waits for the applies), while
// one coordinator runs the real BSP/SSP/DSSP policy over metadata-only
// pushes, so staleness decisions stay a single serialization point no matter
// how many servers carry the bytes.

// Server roles (ClusterConfig.Role, the -role flag on cmd/psserver). The
// empty string is a flat server: one store, the paradigm, every option.
const (
	// RoleCoordinator owns the policy layer of a server group: it serves the
	// cluster map, accepts metadata-only pushes, and runs the real
	// BSP/SSP/DSSP staleness decisions. It never carries model weights.
	RoleCoordinator = "coordinator"
	// RoleData serves a contiguous range of the global store shards: it runs
	// its own applier pipeline, COW store and packed-pull cache for that
	// slice, and announces itself to the coordinator, which decides whether
	// it owns the range — workers then route fragments to it — or stands by
	// for the range's live owner, replicating it until the coordinator
	// promotes it (handleServerAnnounce).
	RoleData = "data"
)

// ClusterConfig is a server's role (ServerConfig.Cluster; dssp.ClusterOptions
// at the public surface). The zero value is a flat server. The coordinator
// lays the group out, the one place that does: from the model, Servers and
// Options.Shards (the group-wide shard count; 0 picks two per data server) it
// derives every range's byte-exact shard and tensor boundaries. A data server
// names the range it wants by Index and is told the range in the
// coordinator's reply; it reads neither Servers nor a shard count, and a data
// server whose model is not the coordinator's fails Start.
type ClusterConfig struct {
	// Role is RoleCoordinator, RoleData, or "" for a flat server.
	Role string
	// Coordinator is the coordinator's address; required for a data server
	// (the -peers flag).
	Coordinator string
	// Servers is the number of data servers in the group. The coordinator's
	// alone: a data server ignores it.
	Servers int
	// Index is this server's slot in the coordinator's [0, Servers) — which
	// range of the group layout it serves. Data servers only; the coordinator
	// refuses an index outside its layout.
	Index int
	// Advertise is the address put in the cluster map for this server —
	// what workers dial. Defaults to the listener's address, which is only
	// right when it is reachable as-is (no ":7070"-style wildcard binds
	// behind NAT).
	Advertise string
}

// validate checks the role's own requirements.
func (c ClusterConfig) validate() error {
	switch c.Role {
	case "":
		return nil
	case RoleCoordinator:
		if c.Servers < 1 {
			return fmt.Errorf("ps: coordinator needs the group's data-server count (Servers)")
		}
		return nil
	case RoleData:
		if c.Coordinator == "" {
			return fmt.Errorf("ps: %s server needs the coordinator's address", c.Role)
		}
		if c.Index < 0 {
			return fmt.Errorf("ps: %s server index %d is negative", c.Role, c.Index)
		}
		return nil
	default:
		return fmt.Errorf("ps: unknown server role %q (want %q or %q)",
			c.Role, RoleCoordinator, RoleData)
	}
}

// groupLayout partitions globalShards contiguous, size-balanced store shards
// over servers data servers and returns each server's map entry, without an
// address — the contiguous global store shards it owns and the global tensor
// indices those shards cover, both half-open [Lo, Hi) — together with the
// normalized shard count. sizes are the per-tensor element counts of the
// model, in global order.
//
// globalShards <= 0 selects a deterministic default of two shards per server
// (machine-independent, unlike the single-server GOMAXPROCS default, because
// every cluster participant must derive the identical layout); any value is
// clamped to [servers, len(sizes)]. The shard boundaries are exactly those
// NewStoreSharded(initial, opt, globalShards) would compute, which is what
// makes an N-server group's optimizer arithmetic bit-identical to the
// single-server store's on identical apply schedules.
func groupLayout(sizes []int, globalShards, servers int) ([]transport.ServerEntry, int, error) {
	if len(sizes) == 0 {
		return nil, 0, fmt.Errorf("ps: group layout needs at least one tensor")
	}
	if servers < 1 {
		return nil, 0, fmt.Errorf("ps: group layout needs at least one server, got %d", servers)
	}
	if servers > len(sizes) {
		return nil, 0, fmt.Errorf("ps: %d servers cannot each own a tensor of a %d-tensor model", servers, len(sizes))
	}
	if globalShards <= 0 {
		globalShards = 2 * servers
	}
	if globalShards > len(sizes) {
		globalShards = len(sizes)
	}
	if globalShards < servers {
		globalShards = servers
	}
	ranges := partitionBySize(sizes, globalShards)
	shardSizes := make([]int, len(ranges))
	for i, r := range ranges {
		for _, sz := range sizes[r.Start:r.End] {
			shardSizes[i] += sz
		}
	}
	srv := partitionBySize(shardSizes, servers)
	out := make([]transport.ServerEntry, servers)
	for i, a := range srv {
		out[i] = transport.ServerEntry{
			ShardLo:  a.Start,
			ShardHi:  a.End,
			TensorLo: ranges[a.Start].Start,
			TensorHi: ranges[a.End-1].End,
		}
	}
	return out, globalShards, nil
}

// tensorSizes returns the element count of each tensor — groupLayout's input.
func tensorSizes(ts []*tensor.Tensor) []int {
	sizes := make([]int, len(ts))
	for i, t := range ts {
		sizes[i] = t.Size()
	}
	return sizes
}

// newStoreRange builds the store a data server runs: the range e of the
// group layout, the sub-range [e.ShardLo, e.ShardHi) of the global
// globalShards-way partition of initial. initial is the FULL global parameter
// list — the store clones only the tensors its shards cover, but the shard
// boundaries are computed over the whole model, so every data server in a
// group (and a single-server store with the same shard count) agrees on them
// exactly. globalShards must be the normalized count groupLayout returned. A
// model whose partition puts the range on other tensors than e's
// [TensorLo, TensorHi) is not the one the layout was made from, and is
// refused.
//
// The resulting store is local in every externally visible way: Shards()
// reports ShardHi-ShardLo, tensor indices (EnqueueApply, ShardRange, the
// tensors of a pull reply) are relative to the range's first tensor. Callers
// map local to global through e.
func newStoreRange(initial []*tensor.Tensor, opt *optimizer.SGD, globalShards int, e transport.ServerEntry) (*Store, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("ps: store needs at least one parameter tensor")
	}
	if opt == nil {
		return nil, fmt.Errorf("ps: store needs an optimizer")
	}
	if globalShards < 1 || globalShards > len(initial) {
		return nil, fmt.Errorf("ps: global shard count %d outside [1, %d]", globalShards, len(initial))
	}
	shardLo, shardHi := e.ShardLo, e.ShardHi
	if shardLo < 0 || shardHi <= shardLo || shardHi > globalShards {
		return nil, fmt.Errorf("ps: shard range [%d, %d) outside [0, %d)", shardLo, shardHi, globalShards)
	}
	global := partitionBySize(tensorSizes(initial), globalShards)
	tLo, tHi := global[shardLo].Start, global[shardHi-1].End
	if tLo != e.TensorLo || tHi != e.TensorHi {
		return nil, fmt.Errorf("ps: the model puts shards [%d, %d) on tensors [%d, %d), the layout on [%d, %d)",
			shardLo, shardHi, tLo, tHi, e.TensorLo, e.TensorHi)
	}

	local := initial[tLo:tHi]
	shapes := make([][]int, len(local))
	for i, p := range local {
		shapes[i] = p.Shape()
	}
	st := &Store{
		shards: make([]*shard, shardHi-shardLo),
		ranges: make([]shardRange, shardHi-shardLo),
		shapes: shapes,
	}
	for i := range st.shards {
		g := global[shardLo+i]
		st.ranges[i] = shardRange{Start: g.Start - tLo, End: g.End - tLo}
		params := make([]*tensor.Tensor, g.End-g.Start)
		for j := range params {
			params[j] = initial[g.Start+j].Clone()
		}
		st.shards[i] = &shard{gen: &paramGen{params: params}, opt: opt.Clone(), wake: make(chan struct{}, 1)}
	}
	st.window.Store(1)
	st.aggCfg = AggregatorConfig{}.Normalized()
	return st, nil
}

// installReplica replaces the store's published weights with params at the
// given applied version — the landing half of the owner→standby replication
// stream, through the one install path the checkpoint restore takes too. It
// leaves the optimizer state untouched: the replication stream carries
// weights only, so a promoted standby resumes with cold momentum (DESIGN.md
// §10 spells out the trade). params are cloned; the caller keeps ownership.
//
// version must be newer than the store's: the replicator only ever streams
// forward, a backwards install would violate the version monotonicity every
// staleness bound is defined against, and one at the same version would
// change published weights without advancing the version a replica's gated
// pull (Client.Pull) trusts.
func (s *Store) installReplica(params []*tensor.Tensor, version int64) error {
	if cur := s.version.Load(); version <= cur {
		return fmt.Errorf("ps: install at version %d is not newer than the store's %d", version, cur)
	}
	if err := s.checkLayout(params); err != nil {
		return fmt.Errorf("ps: install: %w", err)
	}
	fresh := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		fresh[i] = p.Clone()
	}
	s.install(fresh, version)
	return nil
}

// checkLayout refuses tensors laid out otherwise than the store's: another
// count, or any shape that differs. A checkpoint restore and a replication
// install both check what they install with it.
func (s *Store) checkLayout(ts []*tensor.Tensor) error {
	if len(ts) != len(s.shapes) {
		return fmt.Errorf("%d tensors, store has %d", len(ts), len(s.shapes))
	}
	for i, t := range ts {
		if !sameShape(t.Shape(), s.shapes[i]) {
			return fmt.Errorf("tensor %d has shape %v, store expects %v", i, t.Shape(), s.shapes[i])
		}
	}
	return nil
}

// install publishes params, which the store owns from here on, at version —
// the one path a checkpoint restore and a replication install share. The
// apply pipeline is quiesced first, so the per-shard counters never race an
// applier (updates still queued belong to the state being replaced). Every
// shard drops its old generations, which alias superseded weights a reader
// may still hold and must never be recycled into a new publication,
// publishes the new one at version and retires its packed-pull cache, which a
// restore to an older version would otherwise keep serving; the applied and
// reserved counters all re-base at version, so the shards restart in
// agreement. The optimizers are left as they are.
func (s *Store) install(params []*tensor.Tensor, version int64) {
	s.Close()
	for i, sh := range s.shards {
		r := s.ranges[i]
		sh.mu.Lock()
		sh.evict(append(sh.retired, sh.gen)...)
		sh.gen = &paramGen{params: params[r.Start:r.End:r.End], genPin: genPin{version: version}}
		sh.retired = nil
		sh.mu.Unlock()
		sh.packedMu.Lock()
		if sh.packed != nil {
			old, _ := sh.packedRetired.retire(sh.packed)
			sh.evictPacked(old)
			sh.packed = nil
		}
		sh.packedMu.Unlock()
		sh.applied.Store(version)
	}
	s.reserved.Store(version)
	s.version.Store(version)
}

// announceRange asks the coordinator on conn for range index of its layout,
// served at addr, and returns its OK reply: Servers[0] is the range's owner —
// the range at addr when this member owns it, else at the live owner's
// address it stands by for — and StoreShards and Total are the group's shard
// and tensor counts. The announce names the index in Worker and carries an
// entry with the address alone (PROTOCOL.md §5b). An explicit rejection comes
// back as *RemoteError.
func announceRange(conn transport.Conn, index int, addr string) (transport.Message, error) {
	if err := conn.Send(transport.Message{Type: transport.MsgServerAnnounce, Worker: index,
		Servers: []transport.ServerEntry{{Addr: addr}}}); err != nil {
		return transport.Message{}, err
	}
	msg, err := conn.Recv()
	switch {
	case err != nil:
		return transport.Message{}, err
	case msg.Type == transport.MsgError:
		return transport.Message{}, &RemoteError{Msg: msg.Error}
	case msg.Type != transport.MsgOK || len(msg.Servers) != 1:
		return transport.Message{}, fmt.Errorf("ps: unexpected %v reply to an announce", msg.Type)
	}
	return msg, nil
}

// clusterState is the coordinator's live view of the group: the layout Start
// computed, the entries the map serves, the version workers use to detect
// change, and each range's announce streams, index-aligned with the layout.
// A member's announce stream is each side's liveness watch of the other: the
// coordinator decides on it who owns a range (handleServerAnnounce), and when
// the run is complete it sends every stream Done before anything can stop it
// (done latches that, for an announce arriving later). shards and tensors are
// the group-wide counts every map reply and announce reply advertises (the
// normalized shard count groupLayout returned and the model's tensor count).
// Start sets layout, shards, tensors and ranges before the server serves.
type clusterState struct {
	layout          []transport.ServerEntry
	shards, tensors int

	mu         sync.Mutex
	entries    []transport.ServerEntry
	mapVersion int64
	ranges     []rangeStreams
	done       bool
}

// rangeStreams is one range's announce streams: its owner's, nil once that
// stream ended and until a member takes the range, and its standbys', in
// announce order.
type rangeStreams struct {
	owner    *memberStream
	standbys []*memberStream
}

// memberStream is one member's announce connection and its entry: the
// range's layout entry at the member's address.
type memberStream struct {
	conn  transport.Conn
	entry transport.ServerEntry
}

// send sends msg on every stream of the range, the owner's first.
func (r *rangeStreams) send(msg transport.Message) {
	if r.owner != nil {
		_ = r.owner.conn.Send(msg)
	}
	for _, m := range r.standbys {
		_ = m.conn.Send(msg)
	}
}

// setEntry enters e, a layout entry at its owner's address, in the map,
// replacing the range's entry or adding one in shard order, and bumps the map
// version. Caller holds mu.
func (c *clusterState) setEntry(e transport.ServerEntry) {
	c.mapVersion++
	for i := range c.entries {
		if c.entries[i].ShardLo == e.ShardLo {
			c.entries[i] = e
			return
		}
	}
	c.entries = append(c.entries, e)
	sort.Slice(c.entries, func(i, j int) bool { return c.entries[i].ShardLo < c.entries[j].ShardLo })
}

// endAnnounces tells every announcer that the run is complete, so a member
// whose coordinator stops next does not take the stop for its death.
func (c *clusterState) endAnnounces() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	for i := range c.ranges {
		c.ranges[i].send(transport.Message{Type: transport.MsgDone})
	}
}

// handleClusterMap answers a map request on its own connection — map
// fetches ride dedicated connections, never a registered session's, so the
// reply goes out directly instead of through a session outbox. There is one
// request, which asks the server what it is (requestMap). A coordinator,
// which admits no relays, answers it with its group map; every other server
// with its aggregation-tree layout, the relay entries and the worker-index
// ranges each covers (none on a flat server without relays or a data
// server).
func (s *Server) handleClusterMap(conn transport.Conn, _ transport.Message) {
	if !s.coordinator() {
		s.sm.treeLayoutFetches.Inc()
		_ = conn.Send(transport.Message{Type: transport.MsgClusterMap, Relay: true, Servers: s.tree.snapshot()})
		return
	}
	s.sm.clusterMapRequests.Inc()
	s.cluster.mu.Lock()
	entries := append([]transport.ServerEntry(nil), s.cluster.entries...)
	mapVersion := s.cluster.mapVersion
	s.cluster.mu.Unlock()
	_ = conn.Send(transport.Message{
		Type:        transport.MsgClusterMap,
		Servers:     entries,
		MapVersion:  mapVersion,
		StoreShards: s.cluster.shards,
		Total:       s.cluster.tensors,
	})
}

// handleServerAnnounce is the one place a range's owner is decided, and
// every entry it acts on is one of the coordinator's layout, at the
// announcer's address. A range with no live owner goes to the announcer,
// whose entry enters the map; an announcer at the live owner's own address is
// that owner restarted, and its stream takes the old one's place; any other
// announcer stands by. The OK reply names the range's owner either way, with
// the group's shard and tensor counts the member builds its store from. The
// handler then reads the stream until it ends (streamEnded).
func (s *Server) handleServerAnnounce(conn transport.Conn, msg transport.Message) {
	if !s.coordinator() {
		_ = conn.Send(transport.Message{Type: transport.MsgError, Error: "not a cluster coordinator"})
		return
	}
	entry, err := s.checkEntry(msg)
	if err != nil {
		_ = conn.Send(transport.Message{Type: transport.MsgError, Error: err.Error()})
		return
	}
	s.sm.clusterAnnounces.Inc()
	me := &memberStream{conn: conn, entry: entry}
	c := &s.cluster
	c.mu.Lock()
	r := &c.ranges[msg.Worker]
	switch {
	case r.owner == nil:
		r.owner = me
		c.setEntry(entry)
	case r.owner.entry.Addr == entry.Addr:
		r.owner = me
	default:
		r.standbys = append(r.standbys, me)
	}
	// Replies go out under mu, so a Promote or Done this stream is owed
	// cannot overtake them.
	_ = conn.Send(transport.Message{Type: transport.MsgOK, Servers: []transport.ServerEntry{r.owner.entry},
		StoreShards: c.shards, Total: c.tensors})
	if c.done {
		_ = conn.Send(transport.Message{Type: transport.MsgDone})
	}
	c.mu.Unlock()
	for {
		if _, err := conn.Recv(); err != nil {
			break
		}
	}
	s.streamEnded(r, me)
}

// streamEnded drops a member's ended announce stream from its range. When it
// was the owner's and the run is not complete, the range goes to its
// longest-standing standby: the standby's entry replaces the owner's in the
// map, and every standby is told the new owner on its stream (MsgPromote). A
// range with no standby keeps its dead entry until a member announces for it.
func (s *Server) streamEnded(r *rangeStreams, me *memberStream) {
	c := &s.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.owner != me {
		r.standbys = slices.DeleteFunc(r.standbys, func(m *memberStream) bool { return m == me })
		return
	}
	r.owner = nil
	if c.done || s.isStopped() || len(r.standbys) == 0 {
		return
	}
	r.owner, r.standbys = r.standbys[0], r.standbys[1:]
	c.setEntry(r.owner.entry)
	s.sm.clusterPromotions.Inc()
	r.send(transport.Message{Type: transport.MsgPromote, Servers: []transport.ServerEntry{r.owner.entry}})
}

// checkEntry returns the layout entry an announce asks for, at the
// announcer's address: the announce must carry exactly one entry, with an
// address, and name a range index (in Worker) of the layout.
func (s *Server) checkEntry(msg transport.Message) (transport.ServerEntry, error) {
	if len(msg.Servers) != 1 {
		return transport.ServerEntry{}, fmt.Errorf("%v must carry exactly one server entry, got %d", msg.Type, len(msg.Servers))
	}
	if msg.Servers[0].Addr == "" {
		return transport.ServerEntry{}, fmt.Errorf("%v entry has no address", msg.Type)
	}
	if msg.Worker < 0 || msg.Worker >= len(s.cluster.layout) {
		return transport.ServerEntry{}, fmt.Errorf("%v range index %d outside the coordinator's [0, %d)",
			msg.Type, msg.Worker, len(s.cluster.layout))
	}
	e := s.cluster.layout[msg.Worker]
	e.Addr = msg.Servers[0].Addr
	return e, nil
}

// coordinator reports whether this server is a group's coordinator.
func (s *Server) coordinator() bool { return s.cfg.Cluster.Role == RoleCoordinator }
