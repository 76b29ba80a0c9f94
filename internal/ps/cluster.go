package ps

import (
	"fmt"
	"sort"
	"sync"

	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// This file holds the server-group (cluster) substrate: the roles and the one
// role struct, the partition arithmetic that assigns contiguous runs of
// global store shards to data servers, the range-restricted store a data
// server runs, the live weight install the primary→backup replication stream
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

// ClusterConfig is a server's role (ServerConfig.Cluster; dssp.ClusterOptions
// at the public surface). The zero value is a flat server. Every member of
// one group must be started with the same model, seed, Servers and
// Options.Shards (the group-wide shard count; 0 picks two per data server):
// the shard layout is derived deterministically from them, which is what
// lets servers that have never spoken to each other agree on byte-exact shard
// boundaries. A data server started with another count whose range then
// falls outside the coordinator's is refused at announce.
type ClusterConfig struct {
	// Role is RoleCoordinator, RoleData, RoleBackup, or "" for a flat server.
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
	// The backup polls it every replicateEvery and requests promotion once it
	// stays unreachable past replicateGrace.
	Primary string
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
	case RoleData, RoleBackup:
		if c.Coordinator == "" {
			return fmt.Errorf("ps: %s server needs the coordinator's address", c.Role)
		}
		if c.Servers < 1 {
			return fmt.Errorf("ps: %s server needs the group's data-server count (Servers)", c.Role)
		}
		if c.Index < 0 || c.Index >= c.Servers {
			return fmt.Errorf("ps: %s server index %d outside [0, %d)", c.Role, c.Index, c.Servers)
		}
		if c.Role == RoleBackup && c.Primary == "" {
			return fmt.Errorf("ps: backup server needs its primary's address")
		}
		return nil
	default:
		return fmt.Errorf("ps: unknown server role %q (want %q, %q or %q)",
			c.Role, RoleCoordinator, RoleData, RoleBackup)
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

// newStoreRange builds the store a data server runs: the sub-range
// [shardLo, shardHi) of the global globalShards-way partition of initial.
// initial is the FULL global parameter list — the store clones only the
// tensors its shards cover, but the shard boundaries are computed over the
// whole model, so every data server in a group (and a single-server store
// with the same shard count) agrees on them exactly. globalShards must be
// the normalized count groupLayout returned.
//
// The resulting store is local in every externally visible way: Shards()
// reports shardHi-shardLo, tensor indices (EnqueueApply, ShardRange, the
// tensors of a pull reply) are relative to the range's first tensor. Callers map local
// to global through the layout entry that produced the range.
func newStoreRange(initial []*tensor.Tensor, opt *optimizer.SGD, globalShards, shardLo, shardHi int) (*Store, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("ps: store needs at least one parameter tensor")
	}
	if opt == nil {
		return nil, fmt.Errorf("ps: store needs an optimizer")
	}
	if globalShards < 1 || globalShards > len(initial) {
		return nil, fmt.Errorf("ps: global shard count %d outside [1, %d]", globalShards, len(initial))
	}
	if shardLo < 0 || shardHi <= shardLo || shardHi > globalShards {
		return nil, fmt.Errorf("ps: shard range [%d, %d) outside [0, %d)", shardLo, shardHi, globalShards)
	}
	global := partitionBySize(tensorSizes(initial), globalShards)
	tLo, tHi := global[shardLo].Start, global[shardHi-1].End

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
// given applied version — the landing half of the primary→backup replication
// stream, through the one install path the checkpoint restore takes too. It
// leaves the optimizer state untouched: the replication stream carries
// weights only, so a promoted backup resumes with cold momentum (DESIGN.md
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

// submitEntry sends the coordinator one map entry on conn — typ is
// MsgServerAnnounce (a backup's, with replica set, is acknowledged without
// entering the map) or MsgPromote — and waits for the acknowledgement. An
// explicit rejection comes back as *RemoteError.
func submitEntry(conn transport.Conn, typ transport.MessageType, entry transport.ServerEntry, replica bool) error {
	if err := conn.Send(transport.Message{Type: typ, Servers: []transport.ServerEntry{entry}, Replica: replica}); err != nil {
		return err
	}
	msg, err := conn.Recv()
	if err != nil {
		return err
	}
	if msg.Type == transport.MsgError {
		return &RemoteError{Msg: msg.Error}
	}
	if msg.Type != transport.MsgOK {
		return fmt.Errorf("ps: unexpected %v reply to %v", msg.Type, typ)
	}
	return nil
}

// clusterState is the coordinator's live view of the group: the data-server
// entries the map serves and the version workers use to detect change. An
// announcing data server or backup parks on its connection as its liveness
// watch on this coordinator (parked): when every worker is done the
// coordinator sends each one Done before anything can stop it (done latches
// that, for an announce arriving later), and the session layer's stop sweep
// closes them with every other connection. shards and tensors are the
// group-wide layout every map reply advertises (the normalized shard count
// groupLayout returned and the model's tensor count), set by Start.
type clusterState struct {
	shards, tensors int

	mu         sync.Mutex
	entries    []transport.ServerEntry
	mapVersion int64
	parked     []transport.Conn
	done       bool
}

// endAnnounces tells every parked announcer that the run is complete, so a
// member whose coordinator stops next does not take the stop for its death.
func (c *clusterState) endAnnounces() {
	c.mu.Lock()
	parked := c.parked
	c.parked, c.done = nil, true
	c.mu.Unlock()
	for _, conn := range parked {
		_ = conn.Send(transport.Message{Type: transport.MsgDone})
	}
}

// handleClusterMap answers a worker's map request on its own connection —
// map fetches ride dedicated connections, never a registered session's, so
// the reply goes out directly instead of through a session outbox. A request
// with Relay set asks for the aggregation-tree layout instead of the
// server-group map: the relay entries and the worker-index ranges each
// covers, which any server with a relay tier (coordinator or not) serves. A
// non-coordinator rejects a plain map request by name: pointing a cluster
// worker at a data server is a wiring bug worth a clear message.
func (s *Server) handleClusterMap(conn transport.Conn, msg transport.Message) {
	if msg.Relay {
		s.sm.treeLayoutFetches.Inc()
		entries, version := s.tree.snapshot()
		_ = conn.Send(transport.Message{
			Type:        transport.MsgClusterMap,
			Relay:       true,
			Servers:     entries,
			MapVersion:  version,
			StoreShards: s.cfg.Store.Shards(),
			Total:       s.cfg.Workers,
			Version:     s.cfg.Store.Version(),
		})
		return
	}
	if !s.coordinator() {
		_ = conn.Send(transport.Message{
			Type:  transport.MsgError,
			Error: "not a cluster coordinator",
		})
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
		Version:     s.cfg.Store.Version(),
	})
}

// handleServerAnnounce records a data server's entry in the map (backups
// announce with Replica set and are acknowledged without entering the map —
// they become routable only through promotion). Re-announcing an owned shard
// range replaces the entry, which is how a restarted primary re-claims its
// slice.
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
	if !msg.Replica {
		s.cluster.mu.Lock()
		replaced := false
		for i := range s.cluster.entries {
			if s.cluster.entries[i].ShardLo == entry.ShardLo && s.cluster.entries[i].ShardHi == entry.ShardHi {
				s.cluster.entries[i] = entry
				replaced = true
				break
			}
		}
		if !replaced {
			s.cluster.entries = append(s.cluster.entries, entry)
			sort.Slice(s.cluster.entries, func(i, j int) bool {
				return s.cluster.entries[i].ShardLo < s.cluster.entries[j].ShardLo
			})
		}
		s.cluster.mapVersion++
		s.cluster.mu.Unlock()
	}
	_ = conn.Send(transport.Message{Type: transport.MsgOK})
	s.cluster.mu.Lock()
	done := s.cluster.done
	if !done {
		s.cluster.parked = append(s.cluster.parked, conn)
	}
	s.cluster.mu.Unlock()
	if done {
		_ = conn.Send(transport.Message{Type: transport.MsgDone})
	}
}

// handlePromote swaps the owner address of one shard range — the promotion a
// backup requests after declaring its primary dead. Workers learn the new
// owner from their next map fetch.
func (s *Server) handlePromote(conn transport.Conn, msg transport.Message) {
	if !s.coordinator() {
		_ = conn.Send(transport.Message{Type: transport.MsgError, Error: "not a cluster coordinator"})
		return
	}
	entry, err := s.checkEntry(msg)
	if err != nil {
		_ = conn.Send(transport.Message{Type: transport.MsgError, Error: err.Error()})
		return
	}
	s.cluster.mu.Lock()
	promoted := false
	for i := range s.cluster.entries {
		if s.cluster.entries[i].ShardLo == entry.ShardLo && s.cluster.entries[i].ShardHi == entry.ShardHi {
			s.cluster.entries[i] = entry
			promoted = true
			break
		}
	}
	if promoted {
		s.cluster.mapVersion++
	}
	s.cluster.mu.Unlock()
	if !promoted {
		_ = conn.Send(transport.Message{
			Type:  transport.MsgError,
			Error: fmt.Sprintf("no cluster-map entry owns shards [%d, %d)", entry.ShardLo, entry.ShardHi),
		})
		return
	}
	s.sm.clusterPromotions.Inc()
	_ = conn.Send(transport.Message{Type: transport.MsgOK})
}

// checkEntry extracts and validates the single server entry an announce or
// promote request must carry.
func (s *Server) checkEntry(msg transport.Message) (transport.ServerEntry, error) {
	if len(msg.Servers) != 1 {
		return transport.ServerEntry{}, fmt.Errorf("%v must carry exactly one server entry, got %d", msg.Type, len(msg.Servers))
	}
	e := msg.Servers[0]
	if e.Addr == "" {
		return transport.ServerEntry{}, fmt.Errorf("%v entry has no address", msg.Type)
	}
	if e.ShardLo < 0 || e.ShardHi <= e.ShardLo || e.ShardHi > s.cluster.shards {
		return transport.ServerEntry{}, fmt.Errorf("%v shard range [%d, %d) outside [0, %d)",
			msg.Type, e.ShardLo, e.ShardHi, s.cluster.shards)
	}
	if e.TensorLo < 0 || e.TensorHi <= e.TensorLo || e.TensorHi > s.cluster.tensors {
		return transport.ServerEntry{}, fmt.Errorf("%v tensor range [%d, %d) outside [0, %d)",
			msg.Type, e.TensorLo, e.TensorHi, s.cluster.tensors)
	}
	return e, nil
}

// coordinator reports whether this server is a group's coordinator.
func (s *Server) coordinator() bool { return s.cfg.Cluster.Role == RoleCoordinator }

// ClusterMap snapshots the coordinator's current map (nil on non-coordinator
// servers): the entries in shard order and the map version.
func (s *Server) ClusterMap() ([]transport.ServerEntry, int64) {
	if !s.coordinator() {
		return nil, 0
	}
	s.cluster.mu.Lock()
	defer s.cluster.mu.Unlock()
	return append([]transport.ServerEntry(nil), s.cluster.entries...), s.cluster.mapVersion
}
