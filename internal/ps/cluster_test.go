package ps

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// clusterShapes is the model every cluster test partitions: six tensors of
// uneven sizes, so shard and server boundaries land mid-model.
var clusterShapes = [][]int{{6, 4}, {4}, {4, 3}, {3}, {3, 2}, {2}}

// seededModel builds the test model with deterministic pseudo-random
// weights: every participant (group servers, single-server reference) that
// uses the same seed starts bit-identical.
func seededModel(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, len(clusterShapes))
	for i, shape := range clusterShapes {
		t := tensor.New(shape...)
		data := t.Data()
		for j := range data {
			data[j] = rng.Float32() - 0.5
		}
		out[i] = t
	}
	return out
}

// scheduledGrads returns worker w's gradient for iteration it —
// deterministic in (w, it) so a serial replay reproduces it exactly.
func scheduledGrads(w, it int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(int64(w)*1_000_003 + int64(it)))
	out := make([]*tensor.Tensor, len(clusterShapes))
	for i, shape := range clusterShapes {
		t := tensor.New(shape...)
		data := t.Data()
		for j := range data {
			data[j] = rng.Float32() - 0.5
		}
		out[i] = t
	}
	return out
}

// zeroGrads returns an all-zero gradient in the test model's shapes.
func zeroGrads() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(clusterShapes))
	for i, shape := range clusterShapes {
		out[i] = tensor.New(shape...)
	}
	return out
}

// clusterOpt is the optimizer most cluster tests use — momentum, so the
// bit-identity assertions cover per-shard optimizer state, not just weights.
func clusterOpt() optimizer.Optimizer { return optimizer.NewSGDMomentum(0.1, 0.9, 1e-4) }

// testGroup is an in-process server group: one coordinator and N data
// servers, each on its own ChanListener, glued together by an address-keyed
// dialer — the same wiring shape the public layer uses over TCP.
type testGroup struct {
	coordAddr    string
	coord        *Server
	data         []*Server
	dataAddrs    []string
	stores       []*Store
	assignments  []transport.ServerEntry
	globalShards int

	mu        sync.Mutex
	listeners map[string]*transport.ChanListener
}

// at is the layout entry e with its address set.
func at(e transport.ServerEntry, addr string) transport.ServerEntry {
	e.Addr = addr
	return e
}

// dial resolves an advertised address to its in-process listener.
func (g *testGroup) dial(addr string) (transport.Conn, error) {
	g.mu.Lock()
	l := g.listeners[addr]
	g.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("no server at %s", addr)
	}
	return l.Dial()
}

// addListener registers a listener under its address and returns the address.
func (g *testGroup) addListener(l *transport.ChanListener) string {
	g.mu.Lock()
	g.listeners[l.Addr()] = l
	g.mu.Unlock()
	return l.Addr()
}

// serve starts srv on a fresh listener and returns its address.
func (g *testGroup) serve(t *testing.T, srv *Server) string {
	t.Helper()
	l := transport.NewChanListener()
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Stop()
		l.Close()
	})
	return g.addListener(l)
}

// announce sends one announce (or promote) frame to the coordinator over a
// raw connection and requires the MsgOK ack.
func (g *testGroup) announce(t *testing.T, typ transport.MessageType, entry transport.ServerEntry, replica bool) {
	t.Helper()
	conn, err := g.dial(g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(transport.Message{Type: typ, Servers: []transport.ServerEntry{entry}, Replica: replica}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != transport.MsgOK {
		t.Fatalf("%v not acknowledged: %v %s", typ, msg.Type, msg.Error)
	}
}

// startTestGroup stands up a group through Start: the coordinator runs
// policy, every data server runs its shard range of the seed model under a
// local ASP policy and announces itself on its stream, and the group is
// returned once the coordinator's map is complete.
func startTestGroup(t *testing.T, workers, servers int, policy core.Policy, initial []*tensor.Tensor) *testGroup {
	t.Helper()
	return startTestGroupWith(t, workers, servers, policy, initial, clusterOpt)
}

// startTestGroupWith is startTestGroup with the data-server optimizer under
// test control.
func startTestGroupWith(t *testing.T, workers, servers int, policy core.Policy, initial []*tensor.Tensor, mkOpt func() optimizer.Optimizer) *testGroup {
	t.Helper()
	assignments, globalShards, err := groupLayout(tensorSizes(initial), 0, servers)
	if err != nil {
		t.Fatal(err)
	}
	g := &testGroup{
		assignments:  assignments,
		globalShards: globalShards,
		listeners:    make(map[string]*transport.ChanListener),
	}

	start := func(cfg ServerConfig, opt optimizer.Optimizer) (*Server, string) {
		l := transport.NewChanListener()
		addr := g.addListener(l)
		srv, err := Start(cfg, initial, opt, l, g.dial)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		return srv, addr
	}
	g.coord, g.coordAddr = start(ServerConfig{Workers: workers, Policy: policy,
		Cluster: ClusterConfig{Role: RoleCoordinator, Servers: servers}}, clusterOpt())
	for i := 0; i < servers; i++ {
		srv, addr := start(ServerConfig{Workers: workers,
			Cluster: ClusterConfig{Role: RoleData, Coordinator: g.coordAddr, Servers: servers, Index: i}}, mkOpt())
		g.data = append(g.data, srv)
		g.dataAddrs = append(g.dataAddrs, addr)
		g.stores = append(g.stores, srv.Store())
	}
	// The data servers announce themselves on their own streams.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := FetchClusterMap(g.dial, g.coordAddr)
		if err == nil && validateMap(m) == nil {
			return g
		}
		if time.Now().After(deadline) {
			t.Fatalf("group map never completed: %v %v", err, validateMap(m))
		}
		time.Sleep(time.Millisecond)
	}
}

// referenceRun replays an apply schedule serially on a single-server store
// with the group's shard boundaries and returns its final weights.
func referenceRun(t *testing.T, initial []*tensor.Tensor, globalShards int, schedule [][2]int) ([]*tensor.Tensor, int64) {
	t.Helper()
	ref, err := NewStoreSharded(initial, clusterOpt(), globalShards)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, s := range schedule {
		if _, err := ref.Apply(scheduledGrads(s[0], s[1])); err != nil {
			t.Fatal(err)
		}
	}
	return ref.Snapshot()
}

// requireSameWeights asserts two parameter lists are bitwise identical.
func requireSameWeights(t *testing.T, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tensors, want %d", len(got), len(want))
	}
	for i := range got {
		gd, wd := got[i].Data(), want[i].Data()
		if len(gd) != len(wd) {
			t.Fatalf("tensor %d: %d values, want %d", i, len(gd), len(wd))
		}
		for j := range gd {
			if gd[j] != wd[j] {
				t.Fatalf("tensor %d value %d: got %v, want %v (not bit-identical)", i, j, gd[j], wd[j])
			}
		}
	}
}

func TestGroupLayoutCoversModelContiguously(t *testing.T) {
	sizes := []int{24, 4, 12, 3, 6, 2}
	for servers := 1; servers <= 4; servers++ {
		assignments, shards, err := groupLayout(sizes, 0, servers)
		if err != nil {
			t.Fatal(err)
		}
		if len(assignments) != servers {
			t.Fatalf("%d servers: %d assignments", servers, len(assignments))
		}
		wantShard, wantTensor := 0, 0
		for i, a := range assignments {
			if a.ShardLo != wantShard || a.TensorLo != wantTensor {
				t.Fatalf("%d servers, assignment %d starts at %d/%d, want %d/%d",
					servers, i, a.ShardLo, a.TensorLo, wantShard, wantTensor)
			}
			if a.ShardHi <= a.ShardLo {
				t.Fatalf("%d servers, assignment %d owns no shards", servers, i)
			}
			wantShard, wantTensor = a.ShardHi, a.TensorHi
		}
		if wantShard != shards || wantTensor != len(sizes) {
			t.Fatalf("%d servers cover %d/%d shards, %d/%d tensors", servers, wantShard, shards, wantTensor, len(sizes))
		}
	}
	if _, _, err := groupLayout(nil, 0, 1); err == nil {
		t.Error("empty model accepted")
	}
	if _, _, err := groupLayout(sizes, 0, 0); err == nil {
		t.Error("zero servers accepted")
	}
	if _, _, err := groupLayout(sizes, 0, len(sizes)+1); err == nil {
		t.Error("more servers than tensors accepted")
	}
	// The shard count clamps into [servers, len(sizes)].
	if _, shards, _ := groupLayout(sizes, 100, 2); shards != len(sizes) {
		t.Errorf("oversized shard count normalized to %d, want %d", shards, len(sizes))
	}
	if _, shards, _ := groupLayout(sizes, 1, 3); shards != 3 {
		t.Errorf("undersized shard count normalized to %d, want 3", shards)
	}
}

// TestGroupLayoutDefaultsAreDeterministic guards the property the whole
// cluster design rests on: every participant derives the identical layout
// from (sizes, shards, servers) with no machine-dependent inputs.
func TestGroupLayoutDefaultsAreDeterministic(t *testing.T) {
	sizes := []int{100, 50, 200, 25, 75, 150}
	a, na, err := groupLayout(sizes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, nb, err := groupLayout(sizes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Fatalf("normalized shard counts differ: %d vs %d", na, nb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNewStoreRangeMatchesGlobalBoundaries(t *testing.T) {
	initial := seededModel(11)
	sizes := make([]int, len(initial))
	for i, p := range initial {
		sizes[i] = p.Size()
	}
	assignments, shards, err := groupLayout(sizes, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewStoreSharded(initial, clusterOpt(), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	for _, a := range assignments {
		st, err := newStoreRange(initial, clusterOpt(), shards, a.ShardLo, a.ShardHi)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards() != a.ShardHi-a.ShardLo {
			t.Fatalf("range store has %d shards, want %d", st.Shards(), a.ShardHi-a.ShardLo)
		}
		if len(st.shapes) != a.TensorHi-a.TensorLo {
			t.Fatalf("range store has %d tensors, want %d", len(st.shapes), a.TensorHi-a.TensorLo)
		}
		// Every local shard boundary must be the global one, shifted.
		for i := 0; i < st.Shards(); i++ {
			local, global := st.ranges[i], full.ranges[a.ShardLo+i]
			if local.Start+a.TensorLo != global.Start || local.End+a.TensorLo != global.End {
				t.Fatalf("local shard %d spans [%d, %d), global shard %d spans [%d, %d)",
					i, local.Start, local.End, a.ShardLo+i, global.Start, global.End)
			}
		}
		st.Close()
	}
	if _, err := newStoreRange(initial, clusterOpt(), shards, 2, 2); err == nil {
		t.Error("empty shard range accepted")
	}
	if _, err := newStoreRange(initial, clusterOpt(), shards, 0, shards+1); err == nil {
		t.Error("out-of-bounds shard range accepted")
	}
}

func TestStoreRangeAppliesBitIdenticallyToShardedStore(t *testing.T) {
	initial := seededModel(7)
	sizes := make([]int, len(initial))
	for i, p := range initial {
		sizes[i] = p.Size()
	}
	assignments, shards, err := groupLayout(sizes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewStoreSharded(initial, clusterOpt(), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	var ranges []*Store
	for _, a := range assignments {
		st, err := newStoreRange(initial, clusterOpt(), shards, a.ShardLo, a.ShardHi)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ranges = append(ranges, st)
	}
	for it := 0; it < 8; it++ {
		grads := scheduledGrads(0, it)
		if _, err := full.Apply(grads); err != nil {
			t.Fatal(err)
		}
		for i, st := range ranges {
			a := assignments[i]
			if _, err := st.Apply(grads[a.TensorLo:a.TensorHi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, _ := full.Snapshot()
	var got []*tensor.Tensor
	for _, st := range ranges {
		part, _ := st.Snapshot()
		got = append(got, part...)
	}
	requireSameWeights(t, got, want)
}

func TestStoreInstallReplacesWeights(t *testing.T) {
	initial := seededModel(5)
	st, err := NewStoreSharded(initial, clusterOpt(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	replacement := seededModel(6)
	if err := st.Install(replacement, 42); err != nil {
		t.Fatal(err)
	}
	if st.Version() != 42 || st.Reserved() != 42 {
		t.Fatalf("installed version %d/%d, want 42/42", st.Version(), st.Reserved())
	}
	got, version := st.Snapshot()
	if version != 42 {
		t.Fatalf("snapshot version %d, want 42", version)
	}
	requireSameWeights(t, got, replacement)
	// Installs only ever move forward: an install at the store's own
	// version would change published weights under a version a replica's
	// gated pull trusts.
	if err := st.Install(replacement, 41); err == nil {
		t.Error("backwards install accepted")
	}
	if err := st.Install(initial, 42); err == nil {
		t.Error("install at the current version accepted")
	}
	if got, _ := st.Snapshot(); !sameTensors(got, replacement) {
		t.Error("a refused install changed the published weights")
	}
	// Shape mismatches are rejected before anything is touched.
	if err := st.Install(replacement[1:], 50); err == nil {
		t.Error("short install accepted")
	}
	// The store still applies after an install (appliers restart lazily).
	if _, err := st.Apply(scheduledGrads(0, 0)); err != nil {
		t.Fatal(err)
	}
	if st.Version() != 43 {
		t.Fatalf("version after post-install apply = %d, want 43", st.Version())
	}
}

func TestCoordinatorClusterMapLifecycle(t *testing.T) {
	initial := seededModel(21)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)

	m, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateMap(m); err != nil {
		t.Fatal(err)
	}
	if len(m.Servers) != 2 || m.StoreShards != g.globalShards || m.Total != len(initial) {
		t.Fatalf("map %d servers, %d shards, %d tensors; want 2, %d, %d",
			len(m.Servers), m.StoreShards, m.Total, g.globalShards, len(initial))
	}
	baseVersion := m.MapVersion
	if baseVersion < 2 {
		t.Fatalf("map version %d after two announces", baseVersion)
	}

	// A backup's replica announce is acknowledged but never enters the map.
	g.announce(t, transport.MsgServerAnnounce, at(g.assignments[0], "backup-addr"), true)
	m2, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Servers) != 2 || m2.MapVersion != baseVersion {
		t.Fatalf("replica announce changed the map: %d servers, version %d", len(m2.Servers), m2.MapVersion)
	}
	for _, e := range m2.Servers {
		if e.Addr == "backup-addr" {
			t.Fatal("replica address routed into the map")
		}
	}

	// Promotion swaps the owner of the shard range and bumps the version.
	g.announce(t, transport.MsgPromote, at(g.assignments[0], "backup-addr"), false)
	m3, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if m3.MapVersion != baseVersion+1 {
		t.Fatalf("promotion left map version %d, want %d", m3.MapVersion, baseVersion+1)
	}
	if m3.Servers[0].Addr != "backup-addr" {
		t.Fatalf("promotion did not reroute: %+v", m3.Servers[0])
	}

	// Promoting a range nobody owns is an explicit error.
	conn, err := g.dial(g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bogus := transport.ServerEntry{Addr: "x", ShardLo: 0, ShardHi: g.globalShards, TensorLo: 0, TensorHi: len(initial)}
	if err := conn.Send(transport.Message{Type: transport.MsgPromote, Servers: []transport.ServerEntry{bogus}}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != transport.MsgError {
		t.Fatalf("bogus promotion answered with %v", msg.Type)
	}
}

func TestDataServerRejectsClusterMapRequests(t *testing.T) {
	initial := seededModel(22)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	_, err := FetchClusterMap(g.dial, g.dataAddrs[0])
	if err == nil {
		t.Fatal("data server served a cluster map")
	}
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("rejection %v is not a RemoteError", err)
	}
	if !strings.Contains(err.Error(), "not a cluster coordinator") {
		t.Fatalf("rejection %q does not name the role", err)
	}
}

func TestCoordinatorRejectsClassicWorkers(t *testing.T) {
	initial := seededModel(23)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	conn, err := g.dial(g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	classic := newClient(conn, 0)
	if err := classic.Register(); err == nil || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("classic registration on coordinator: err = %v, want cluster-mode rejection", err)
	}
	_ = conn.Close()

	conn2, err := g.dial(g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	clustered := newClient(conn2, 0)
	clustered.SetCluster(true)
	if err := clustered.Register(); err != nil {
		t.Fatalf("cluster-mode registration rejected: %v", err)
	}
}

func TestCoordinatorRejectsGuard(t *testing.T) {
	_, err := Start(ServerConfig{
		Workers: 1,
		Policy:  core.MustNewASP(1),
		Options: Options{Guard: GuardConfig{Enabled: true}},
		Cluster: ClusterConfig{Role: RoleCoordinator, Servers: 2},
	}, seededModel(24), clusterOpt(), transport.NewChanListener(), nil)
	if err == nil || !strings.Contains(err.Error(), "guard") {
		t.Fatalf("coordinator with guard: err = %v, want guard rejection", err)
	}
}

func TestReplicaSessionIsReadOnly(t *testing.T) {
	initial := seededModel(31)
	st, err := NewStoreSharded(initial, clusterOpt(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	l := transport.NewChanListener()
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Stop()
		l.Close()
	})

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	replica := newClient(conn, 0)
	replica.SetReplica(true)
	if err := replica.Register(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replica.Pull(); err != nil {
		t.Fatalf("replica pull: %v", err)
	}
	if err := replica.PushAndWait(scheduledGrads(0, 0), 0, 0); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("replica push: err = %v, want read-only rejection", err)
	}

	// The replica never entered policy or completion accounting: worker 0
	// still registers and trains normally alongside it.
	wconn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	worker := newClient(wconn, 0)
	if err := worker.Register(); err != nil {
		t.Fatal(err)
	}
	if err := worker.PushAndWait(scheduledGrads(0, 1), 0, 0); err != nil {
		t.Fatalf("worker push alongside replica: %v", err)
	}
	if srv.Pushes() != 1 {
		t.Fatalf("server counted %d pushes, want 1", srv.Pushes())
	}
}

func TestReplicatorStreamsWeightsIntoStandby(t *testing.T) {
	initial := seededModel(41)
	primary, err := NewStoreSharded(initial, clusterOpt(), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: primary})
	if err != nil {
		t.Fatal(err)
	}
	l := transport.NewChanListener()
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Stop()
		l.Close()
	})

	standby, err := NewStoreSharded(initial, clusterOpt(), 3)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	repErr := make(chan error, 1)
	go func() {
		repErr <- replicate(func() (transport.Conn, error) { return l.Dial() },
			standby, 2*time.Millisecond, time.Second, obs.NewRegistry(), stop)
	}()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	worker := newClient(conn, 0)
	if err := worker.Register(); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 5; it++ {
		if err := worker.PushAndWait(scheduledGrads(0, it), int64(it), it); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for standby.Version() < primary.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at version %d, primary at %d", standby.Version(), primary.Version())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-repErr; err != nil {
		t.Fatalf("replicator: %v", err)
	}
	got, _ := standby.Snapshot()
	want, _ := primary.Snapshot()
	requireSameWeights(t, got, want)
}

func TestReplicatorDeclaresPrimaryDead(t *testing.T) {
	initial := seededModel(42)
	primary, err := NewStoreSharded(initial, clusterOpt(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: primary})
	if err != nil {
		t.Fatal(err)
	}
	l := transport.NewChanListener()
	go func() { _ = srv.Serve(l) }()

	standby, err := NewStoreSharded(initial, clusterOpt(), 2)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	repErr := make(chan error, 1)
	go func() {
		repErr <- replicate(func() (transport.Conn, error) { return l.Dial() },
			standby, 2*time.Millisecond, 150*time.Millisecond, obs.NewRegistry(), stop)
	}()
	// Let the stream establish, then kill the primary.
	time.Sleep(20 * time.Millisecond)
	srv.Stop()
	l.Close()
	select {
	case err := <-repErr:
		if !errors.Is(err, errPrimaryDead) {
			t.Fatalf("replicator returned %v, want errPrimaryDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replicator never declared the primary dead")
	}
}

// TestClusterTrainingBitIdenticalToSingleServer drives a serial schedule —
// every (worker, iteration) gradient deterministic, each push fully applied
// before the next — through 2- and 3-server groups under ASP, SSP and DSSP
// coordinators, and requires the final weights to be bit-identical to a
// single-server store replaying the same schedule. The staleness bounds are
// wide enough that the serial schedule never blocks, so one goroutine can
// drive all workers in a fixed order.
func TestClusterTrainingBitIdenticalToSingleServer(t *testing.T) {
	const workers, iters = 2, 6
	policies := map[string]func() core.Policy{
		"ASP":  func() core.Policy { return core.MustNewASP(workers) },
		"SSP":  func() core.Policy { return core.MustNewSSP(workers, iters+1) },
		"DSSP": func() core.Policy { return core.MustNewDSSP(workers, iters+1, 3) },
	}
	for name, mk := range policies {
		for _, servers := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/servers=%d", name, servers), func(t *testing.T) {
				initial := seededModel(51)
				g := startTestGroup(t, workers, servers, mk(), initial)

				clients := make([]*ClusterClient, workers)
				for w := range clients {
					c, err := NewClusterClient(g.dial, g.coordAddr, w, ClusterClientConfig{})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					clients[w] = c
				}
				var schedule [][2]int
				for it := 0; it < iters; it++ {
					for w := 0; w < workers; w++ {
						_, version, err := clients[w].Pull()
						if err != nil {
							t.Fatal(err)
						}
						if err := clients[w].PushAndWait(scheduledGrads(w, it), version, it); err != nil {
							t.Fatal(err)
						}
						schedule = append(schedule, [2]int{w, it})
					}
				}
				got, version, err := clients[0].Pull()
				if err != nil {
					t.Fatal(err)
				}
				if version != int64(workers*iters) {
					t.Fatalf("final min data version %d, want %d", version, workers*iters)
				}
				want, _ := referenceRun(t, seededModel(51), g.globalShards, schedule)
				requireSameWeights(t, got, want)
				for _, c := range clients {
					if err := c.Done(); err != nil {
						t.Fatal(err)
					}
				}
				// The coordinator's clock ran one tick per push — the single
				// serialization point saw the whole schedule.
				if v := g.coord.Pushes(); v != workers*iters {
					t.Fatalf("coordinator saw %d pushes, want %d", v, workers*iters)
				}
			})
		}
	}
}

// TestClusterBSPBitIdenticalWithConcurrentWorkers runs a real BSP barrier —
// workers on their own goroutines, blocked by the coordinator until the
// round completes. Concurrent fragments may be coalesced into shared
// optimizer steps in nondeterministic batches, so bit-identity needs a
// schedule whose arithmetic is batching-invariant: exactly one worker per
// round carries a real gradient, the rest push zeros, and the optimizer is
// plain SGD — summing zeros into a batch and applying zero updates are both
// bitwise no-ops, whatever the within-round apply order.
func TestClusterBSPBitIdenticalWithConcurrentWorkers(t *testing.T) {
	const workers, iters, servers = 3, 5, 2
	mkSGD := func() optimizer.Optimizer { return optimizer.NewSGD(0.1) }
	initial := seededModel(52)
	g := startTestGroupWith(t, workers, servers, core.MustNewBSP(workers), initial, mkSGD)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := NewClusterClient(g.dial, g.coordAddr, w, ClusterClientConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for it := 0; it < iters; it++ {
				_, version, err := c.Pull()
				if err != nil {
					errs <- err
					return
				}
				grads := zeroGrads()
				if it%workers == w {
					grads = scheduledGrads(0, it)
				}
				if err := c.PushAndWait(grads, version, it); err != nil {
					errs <- err
					return
				}
			}
			errs <- c.Done()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Reference: the real gradients alone, in round order (zero pushes are
	// bitwise no-ops and rounds are barriered by the coordinator).
	ref, err := NewStoreSharded(seededModel(52), mkSGD(), g.globalShards)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for it := 0; it < iters; it++ {
		if _, err := ref.Apply(scheduledGrads(0, it)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := ref.Snapshot()
	var got []*tensor.Tensor
	for _, st := range g.stores {
		part, _ := st.Snapshot()
		got = append(got, part...)
	}
	requireSameWeights(t, got, want)
	if v := g.stores[0].Version(); v != workers*iters {
		t.Fatalf("data store version %d, want %d", v, workers*iters)
	}
}

// TestClusterClientRecoversThroughPromotion is the ps-level failover drill:
// a worker trains against a 2-server group while a replicator mirrors server
// 0 into a standby store; the primary is killed, the standby declares it
// dead, a new server is promoted over the standby store, and the worker's
// next operations recover through the refreshed map — without any
// checkpoint-restore and without the run failing.
func TestClusterClientRecoversThroughPromotion(t *testing.T) {
	initial := seededModel(61)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	a := g.assignments[0]

	standby, err := newStoreRange(initial, clusterOpt(), g.globalShards, a.ShardLo, a.ShardHi)
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := g.dataAddrs[0]
	stop := make(chan struct{})
	defer close(stop)
	repErr := make(chan error, 1)
	go func() {
		repErr <- replicate(func() (transport.Conn, error) { return g.dial(primaryAddr) },
			standby, time.Millisecond, 100*time.Millisecond, obs.NewRegistry(), stop)
	}()

	client, err := NewClusterClient(g.dial, g.coordAddr, 0, ClusterClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const firstLeg = 5
	for it := 0; it < firstLeg; it++ {
		_, version, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := client.PushAndWait(scheduledGrads(0, it), version, it); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the stream to carry everything the primary applied, so the
	// promoted weights are exact (the schedule is quiescent at the kill).
	deadline := time.Now().Add(5 * time.Second)
	for standby.Version() < g.stores[0].Version() {
		if time.Now().After(deadline) {
			t.Fatalf("standby at version %d, primary at %d", standby.Version(), g.stores[0].Version())
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the primary; the replicator must declare it dead.
	g.data[0].Stop()
	select {
	case err := <-repErr:
		if !errors.Is(err, errPrimaryDead) {
			t.Fatalf("replicator returned %v, want errPrimaryDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replicator never declared the primary dead")
	}

	// Promote: serve the standby store and reroute the shard range to it.
	promoted, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: standby})
	if err != nil {
		t.Fatal(err)
	}
	addr := g.serve(t, promoted)
	g.announce(t, transport.MsgPromote, at(a, addr), false)

	oldMap := client.mapVersion
	for it := firstLeg; it < firstLeg+5; it++ {
		_, version, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := client.PushAndWait(scheduledGrads(0, it), version, it); err != nil {
			t.Fatal(err)
		}
	}
	if client.mapVersion <= oldMap {
		t.Fatalf("client never adopted the promoted map (version %d)", client.mapVersion)
	}
	if promoted.Pushes() == 0 {
		t.Fatal("promoted backup received no pushes")
	}
	if promoted.Dropped() != 0 {
		t.Fatalf("promoted backup dropped %d pushes", promoted.Dropped())
	}
	// The promotion path never used checkpoint-restore: the standby carried
	// straight on from the replication stream. The reference mirrors that
	// exactly — replicated shards restart with installed weights but cold
	// momentum (Install does not carry optimizer state; DESIGN.md §10),
	// while the surviving server's shards keep their unbroken history.
	got, version, err := client.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if version != 10 {
		t.Fatalf("final version %d, want 10", version)
	}
	want := make([]*tensor.Tensor, 0, len(initial))
	for i, asg := range g.assignments {
		ref, err := newStoreRange(seededModel(61), clusterOpt(), g.globalShards, asg.ShardLo, asg.ShardHi)
		if err != nil {
			t.Fatal(err)
		}
		apply := func(it int) {
			grads := scheduledGrads(0, it)
			if _, err := ref.Apply(grads[asg.TensorLo:asg.TensorHi]); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			// Replay to the kill point, re-install the published weights
			// into a fresh store (= promotion), then finish the schedule.
			for it := 0; it < firstLeg; it++ {
				apply(it)
			}
			snap, v := ref.Snapshot()
			ref.Close()
			if ref, err = newStoreRange(seededModel(61), clusterOpt(), g.globalShards, asg.ShardLo, asg.ShardHi); err != nil {
				t.Fatal(err)
			}
			if err := ref.Install(snap, v); err != nil {
				t.Fatal(err)
			}
			for it := firstLeg; it < 10; it++ {
				apply(it)
			}
		} else {
			for it := 0; it < 10; it++ {
				apply(it)
			}
		}
		part, _ := ref.Snapshot()
		want = append(want, part...)
		ref.Close()
	}
	requireSameWeights(t, got, want)
}
