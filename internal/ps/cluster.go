package ps

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// This file holds the server-group (cluster) substrate: the partition
// arithmetic that assigns contiguous runs of global store shards to data
// servers, the range-restricted store a data server runs, and the live
// weight install the primary→backup replication stream lands on.
//
// The cluster split keeps the paradigm semantics of conf_icdcs_ZhaoALC19
// centralized: data servers apply gradient fragments under a local ASP
// policy (release = "fragment applied"), while one coordinator runs the real
// BSP/SSP/DSSP policy over metadata-only pushes, so staleness decisions stay
// a single serialization point no matter how many servers carry the bytes.

// ShardAssignment is one data server's slice of the global layout: the
// contiguous global store shards it owns and the global tensor indices those
// shards cover. Both ranges are half-open [Lo, Hi).
type ShardAssignment struct {
	ShardLo, ShardHi   int
	TensorLo, TensorHi int
}

// GroupLayout partitions globalShards contiguous, size-balanced store shards
// over servers data servers and returns each server's assignment together
// with the normalized shard count. sizes are the per-tensor element counts
// of the model, in global order.
//
// globalShards <= 0 selects a deterministic default of two shards per server
// (machine-independent, unlike the single-server GOMAXPROCS default, because
// every cluster participant must derive the identical layout); any value is
// clamped to [servers, len(sizes)]. The shard boundaries are exactly those
// NewStoreSharded(initial, opt, globalShards) would compute, which is what
// makes an N-server group's optimizer arithmetic bit-identical to the
// single-server store's on identical apply schedules.
func GroupLayout(sizes []int, globalShards, servers int) ([]ShardAssignment, int, error) {
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
	out := make([]ShardAssignment, servers)
	for i, a := range srv {
		out[i] = ShardAssignment{
			ShardLo:  a.Start,
			ShardHi:  a.End,
			TensorLo: ranges[a.Start].Start,
			TensorHi: ranges[a.End-1].End,
		}
	}
	return out, globalShards, nil
}

// Entry converts an assignment into its wire form at the given address.
func (a ShardAssignment) Entry(addr string) transport.ServerEntry {
	return transport.ServerEntry{
		Addr:     addr,
		ShardLo:  a.ShardLo,
		ShardHi:  a.ShardHi,
		TensorLo: a.TensorLo,
		TensorHi: a.TensorHi,
	}
}

// NewStoreRange builds the store a data server runs: the sub-range
// [shardLo, shardHi) of the global globalShards-way partition of initial.
// initial is the FULL global parameter list — the store clones only the
// tensors its shards cover, but the shard boundaries are computed over the
// whole model, so every data server in a group (and a single-server store
// with the same shard count) agrees on them exactly. globalShards must be
// the normalized count GroupLayout returned.
//
// The resulting store is local in every externally visible way: Shards()
// reports shardHi-shardLo, tensor indices (EnqueueApply, ShardRange, pull
// chunk bases) are relative to the range's first tensor. Callers map local
// to global through the ShardAssignment that produced the range.
func NewStoreRange(initial []*tensor.Tensor, opt optimizer.Optimizer, globalShards, shardLo, shardHi int) (*Store, error) {
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
	global := partitionBySize(TensorSizes(initial), globalShards)
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
		proto:  opt,
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

// Install replaces the store's published weights with params at the given
// applied version — the landing half of the primary→backup replication
// stream. It mirrors the checkpoint-install path (quiesce, fresh generations,
// shard-version bump so packed caches refresh) but deliberately leaves the
// optimizer state untouched: the replication stream carries weights only, so
// a promoted backup resumes with cold momentum (DESIGN.md §10 spells out the
// trade). params are cloned; the caller keeps ownership.
//
// version must be newer than the store's: the replicator only ever streams
// forward, a backwards install would violate the version monotonicity every
// staleness bound is defined against, and one at the same version would
// change published weights without advancing the version a replica's gated
// pull (Client.Pull) trusts.
func (s *Store) Install(params []*tensor.Tensor, version int64) error {
	if cur := s.version.Load(); version <= cur {
		return fmt.Errorf("ps: install at version %d is not newer than the store's %d", version, cur)
	}
	if len(params) != len(s.shapes) {
		return fmt.Errorf("ps: install carries %d tensors, store has %d", len(params), len(s.shapes))
	}
	for i, p := range params {
		if !sameShape(p.Shape(), s.shapes[i]) {
			return fmt.Errorf("ps: install tensor %d has shape %v, store expects %v", i, p.Shape(), s.shapes[i])
		}
	}
	// Quiesce the apply pipeline so the per-shard counters below never race
	// an applier. A backup store receives no pushes while standing by, so
	// this is a no-op there; it is still correct on a live store.
	s.Close()
	for i, sh := range s.shards {
		r := s.ranges[i]
		fresh := make([]*tensor.Tensor, r.End-r.Start)
		for j := range fresh {
			fresh[j] = params[r.Start+j].Clone()
		}
		sh.mu.Lock()
		// Drop retired generations: they alias superseded weights and must
		// not be recycled into a future publication a reader already holds.
		sh.evict(append(sh.retired, sh.gen)...)
		sh.gen = &paramGen{params: fresh}
		sh.retired = nil
		// Bump the shard version so the packed-pull cache refreshes rather
		// than trusting a stale version number.
		sh.version++
		sh.mu.Unlock()
		sh.applied.Store(version)
	}
	s.reserved.Store(version)
	s.version.Store(version)
	return nil
}

// ClusterConfig is a server's group role (ServerConfig.Cluster). The zero
// value is a classic standalone server.
type ClusterConfig struct {
	// Coordinator marks this server as the group's policy owner: it serves
	// the cluster map to workers, accepts metadata-only pushes, and runs the
	// real BSP/SSP/DSSP policy. A coordinator's store is a placeholder — it
	// never carries model weights.
	Coordinator bool
	// GlobalShards and TotalTensors describe the group-wide layout the
	// coordinator advertises in every map reply (the normalized shard count
	// GroupLayout returned and the model's tensor count). Required when
	// Coordinator is set.
	GlobalShards int
	TotalTensors int
}

// AsGroupMember completes cfg for one member of a server group — the one
// place that knows what a role is made of (DESIGN.md §10). With own nil the
// server is the coordinator: it keeps cfg.Policy, the real paradigm, over a
// one-scalar placeholder store, so the version bookkeeping the paradigm gates
// on exists without carrying any weights. Otherwise it is the data server (or
// standby backup) owning shards [own.ShardLo, own.ShardHi) of initial, the
// full model: a fragment's OK means "applied locally", so its policy is a
// local ASP that releases every push at once while the paradigm runs at the
// coordinator. globalShards is the normalized count GroupLayout returned.
func (cfg ServerConfig) AsGroupMember(initial []*tensor.Tensor, opt optimizer.Optimizer, globalShards int, own *ShardAssignment) (ServerConfig, error) {
	var err error
	if own == nil {
		cfg.Store, err = NewStoreSharded([]*tensor.Tensor{tensor.New(1)}, optimizer.NewSGD(1), 1)
		cfg.Cluster = ClusterConfig{Coordinator: true, GlobalShards: globalShards, TotalTensors: len(initial)}
		return cfg, err
	}
	asp, err := core.NewASP(cfg.Workers)
	if err != nil {
		return cfg, err
	}
	cfg.Policy = asp
	cfg.Store, err = NewStoreRange(initial, opt, globalShards, own.ShardLo, own.ShardHi)
	return cfg, err
}

// TensorSizes returns the element count of each tensor — GroupLayout's input.
func TensorSizes(ts []*tensor.Tensor) []int {
	sizes := make([]int, len(ts))
	for i, t := range ts {
		sizes[i] = t.Size()
	}
	return sizes
}

// SubmitEntry sends the coordinator one map entry on conn — typ is
// MsgServerAnnounce (a backup's, with replica set, is acknowledged without
// entering the map) or MsgPromote — and waits for the acknowledgement. An
// explicit rejection comes back as *RemoteError.
func SubmitEntry(conn transport.Conn, typ transport.MessageType, entry transport.ServerEntry, replica bool) error {
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

// Announce registers a data server's (or, with replica set, a backup's) map
// entry with the coordinator and then holds the connection open as the
// server's liveness watch on it, until stop closes or the coordinator reports
// the run complete with a Done frame (nil), or the coordinator is lost (the
// error). Losing the coordinator is fatal by design — it is the
// single serialization point for staleness decisions (DESIGN.md §10) — so
// only the first announce retries, with backoff for up to 30 s: an
// orchestrator may start the whole group at once. An explicit rejection is
// final at once, and once an announce has succeeded the coordinator was
// provably up, so any later connection loss means it died.
func Announce(dial func(addr string) (transport.Conn, error), coordAddr string, entry transport.ServerEntry, replica bool, stop <-chan struct{}) error {
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	announced := false
	err := retry(30*time.Second, 50*time.Millisecond, 1600*time.Millisecond,
		func(err error) bool { return announced || stopped() || isRemote(err) },
		func() error {
			conn, err := dial(coordAddr)
			if err != nil {
				return err
			}
			defer conn.Close()
			// Tie the connection to stop so shutdown unblocks the Recvs below.
			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-stop:
					_ = conn.Close()
				case <-done:
				}
			}()
			if err := SubmitEntry(conn, transport.MsgServerAnnounce, entry, replica); err != nil {
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

// clusterState is the coordinator's live view of the group: the data-server
// entries the map serves and the version workers use to detect change. An
// announcing data server or backup parks on its connection as its liveness
// watch on this coordinator (parked): when every worker is done the
// coordinator sends each one Done before anything can stop it (done latches
// that, for an announce arriving later), and the session layer's stop sweep
// closes them with every other connection.
type clusterState struct {
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
	if !s.cfg.Cluster.Coordinator {
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
		StoreShards: s.cfg.Cluster.GlobalShards,
		Total:       s.cfg.Cluster.TotalTensors,
		Version:     s.cfg.Store.Version(),
	})
}

// handleServerAnnounce records a data server's entry in the map (backups
// announce with Replica set and are acknowledged without entering the map —
// they become routable only through promotion). Re-announcing an owned shard
// range replaces the entry, which is how a restarted primary re-claims its
// slice.
func (s *Server) handleServerAnnounce(conn transport.Conn, msg transport.Message) {
	if !s.cfg.Cluster.Coordinator {
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
	if !s.cfg.Cluster.Coordinator {
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
	if e.ShardLo < 0 || e.ShardHi <= e.ShardLo || e.ShardHi > s.cfg.Cluster.GlobalShards {
		return transport.ServerEntry{}, fmt.Errorf("%v shard range [%d, %d) outside [0, %d)",
			msg.Type, e.ShardLo, e.ShardHi, s.cfg.Cluster.GlobalShards)
	}
	if e.TensorLo < 0 || e.TensorHi <= e.TensorLo || e.TensorHi > s.cfg.Cluster.TotalTensors {
		return transport.ServerEntry{}, fmt.Errorf("%v tensor range [%d, %d) outside [0, %d)",
			msg.Type, e.TensorLo, e.TensorHi, s.cfg.Cluster.TotalTensors)
	}
	return e, nil
}

// ClusterMap snapshots the coordinator's current map (nil on non-coordinator
// servers): the entries in shard order and the map version.
func (s *Server) ClusterMap() ([]transport.ServerEntry, int64) {
	if !s.cfg.Cluster.Coordinator {
		return nil, 0
	}
	s.cluster.mu.Lock()
	defer s.cluster.mu.Unlock()
	return append([]transport.ServerEntry(nil), s.cluster.entries...), s.cluster.mapVersion
}
