package ps

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/compress"
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
func clusterOpt() *optimizer.SGD { return optimizer.NewSGDMomentum(0.1, 0.9) }

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

// announce announces range i at addr to the coordinator over a raw
// connection and returns the owner its OK reply names, with the stream, which
// the test closes when it is done with it.
func (g *testGroup) announce(t *testing.T, i int, addr string) (transport.ServerEntry, transport.Conn) {
	t.Helper()
	conn, err := g.dial(g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	reply, err := announceRange(conn, i, addr)
	if err != nil {
		t.Fatal(err)
	}
	return reply.Servers[0], conn
}

// startStandby starts a data server for index i of g, whose range already
// has its owner, on a fresh listener; the member reaches the group through
// dial, g.dial when nil. The coordinator makes it the owner's standby.
func (g *testGroup) startStandby(t *testing.T, i int, initial []*tensor.Tensor, dial func(string) (transport.Conn, error)) (*Server, string) {
	t.Helper()
	if dial == nil {
		dial = g.dial
	}
	l := transport.NewChanListener()
	addr := g.addListener(l)
	srv, err := Start(ServerConfig{Workers: 1, Cluster: ClusterConfig{Role: RoleData,
		Coordinator: g.coordAddr, Index: i}}, initial, clusterOpt(), l, dial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, addr
}

// eventuallyTrue polls ok every millisecond for up to d, failing with what
// when it never holds.
func eventuallyTrue(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("%s within %v", what, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// startTestGroup stands up a group through Start: the coordinator runs
// policy, and every data server runs its shard range of the seed model under
// a local ASP policy, each started once the one before it has announced
// itself, so the coordinator's map is complete when it returns.
func startTestGroup(t *testing.T, workers, servers int, policy core.Policy, initial []*tensor.Tensor) *testGroup {
	t.Helper()
	return startTestGroupWith(t, workers, servers, policy, initial, clusterOpt, Options{})
}

// startTestGroupWith is startTestGroup with the data servers' optimizer and
// options under test control. opts' Shards goes to the coordinator alone,
// which lays the group out; the rest goes to the data servers.
func startTestGroupWith(t *testing.T, workers, servers int, policy core.Policy, initial []*tensor.Tensor, mkOpt func() *optimizer.SGD, opts Options) *testGroup {
	t.Helper()
	g := startCoordinator(t, workers, servers, policy, initial, opts.Shards)
	opts.Shards = 0
	for i := 0; i < servers; i++ {
		srv, addr := g.start(t, ServerConfig{Workers: workers, Options: opts,
			Cluster: ClusterConfig{Role: RoleData, Coordinator: g.coordAddr, Index: i}}, initial, mkOpt())
		g.data = append(g.data, srv)
		g.dataAddrs = append(g.dataAddrs, addr)
		g.stores = append(g.stores, srv.Store())
	}
	return g
}

// startCoordinator stands up the coordinator of a group of servers data
// servers that lays initial out in shards store shards, and no data server.
func startCoordinator(t *testing.T, workers, servers int, policy core.Policy, initial []*tensor.Tensor, shards int) *testGroup {
	t.Helper()
	assignments, globalShards, err := groupLayout(tensorSizes(initial), shards, servers)
	if err != nil {
		t.Fatal(err)
	}
	g := &testGroup{
		assignments:  assignments,
		globalShards: globalShards,
		listeners:    make(map[string]*transport.ChanListener),
	}
	g.coord, g.coordAddr = g.start(t, ServerConfig{Workers: workers, Policy: policy, Options: Options{Shards: shards},
		Cluster: ClusterConfig{Role: RoleCoordinator, Servers: servers}}, initial, clusterOpt())
	return g
}

// start stands cfg up through Start on a fresh listener of g and returns the
// server with its address.
func (g *testGroup) start(t *testing.T, cfg ServerConfig, initial []*tensor.Tensor, opt *optimizer.SGD) (*Server, string) {
	t.Helper()
	l := transport.NewChanListener()
	addr := g.addListener(l)
	srv, err := Start(cfg, initial, opt, l, g.dial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, addr
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
		st, err := newStoreRange(initial, clusterOpt(), shards, a)
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
	if _, err := newStoreRange(initial, clusterOpt(), shards, transport.ServerEntry{ShardLo: 2, ShardHi: 2}); err == nil {
		t.Error("empty shard range accepted")
	}
	if _, err := newStoreRange(initial, clusterOpt(), shards, transport.ServerEntry{ShardHi: shards + 1}); err == nil {
		t.Error("out-of-bounds shard range accepted")
	}
	// A range the model's partition puts on other tensors than the layout
	// says is another model's.
	moved := assignments[1]
	moved.TensorLo++
	if _, err := newStoreRange(initial, clusterOpt(), shards, moved); err == nil || !strings.Contains(err.Error(), "tensors") {
		t.Errorf("a range on other tensors than the model's partition: err %v", err)
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
		st, err := newStoreRange(initial, clusterOpt(), shards, a)
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
	if err := st.installReplica(replacement, 42); err != nil {
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
	if err := st.installReplica(replacement, 41); err == nil {
		t.Error("backwards install accepted")
	}
	if err := st.installReplica(initial, 42); err == nil {
		t.Error("install at the current version accepted")
	}
	if got, _ := st.Snapshot(); !sameTensors(got, replacement) {
		t.Error("a refused install changed the published weights")
	}
	// Shape mismatches are rejected before anything is touched.
	if err := st.installReplica(replacement[1:], 50); err == nil {
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

	// A later announcer for an owned range stands by: its reply names the
	// live owner, and the map does not change.
	owner, stream := g.announce(t, 0, "standby-addr")
	if want := at(g.assignments[0], g.dataAddrs[0]); owner != want {
		t.Fatalf("the standby was named owner %+v, want %+v", owner, want)
	}
	m2, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Servers) != 2 || m2.MapVersion != baseVersion || m2.Servers[0].Addr != g.dataAddrs[0] {
		t.Fatalf("a standby's announce changed the map: %+v at version %d", m2.Servers, m2.MapVersion)
	}

	// The owner's stream ends mid-run: the standby is told on its stream
	// that it owns the range, and the map names it one version on.
	g.data[0].Stop()
	msg, err := stream.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != transport.MsgPromote || len(msg.Servers) != 1 || msg.Servers[0].Addr != "standby-addr" {
		t.Fatalf("the standby got %v %+v, want a Promote naming it", msg.Type, msg.Servers)
	}
	m3, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if m3.MapVersion != baseVersion+1 {
		t.Fatalf("promotion left map version %d, want %d", m3.MapVersion, baseVersion+1)
	}
	if m3.Servers[0].Addr != "standby-addr" {
		t.Fatalf("promotion did not reroute: %+v", m3.Servers[0])
	}
}

// TestDataServerStartMeetsTheCoordinatorsLayout: the coordinator's layout is
// the only one. An announce naming a range index outside it is refused by
// name, and the refusal is final: Start dials the coordinator once and
// returns its error. A member whose model has another tensor count than the
// coordinator's fails Start by name; the range it was given has no live owner
// then, and the next member to announce it takes it.
func TestDataServerStartMeetsTheCoordinatorsLayout(t *testing.T) {
	initial := seededModel(26)
	g := startCoordinator(t, 1, 2, core.MustNewASP(1), initial, 0)
	var dials atomic.Int32
	counted := func(addr string) (transport.Conn, error) {
		dials.Add(1)
		return g.dial(addr)
	}
	start := func(index int, model []*tensor.Tensor) (*Server, string, error) {
		l := transport.NewChanListener()
		addr := g.addListener(l)
		srv, err := Start(ServerConfig{Workers: 1, Cluster: ClusterConfig{Role: RoleData, Coordinator: g.coordAddr, Index: index}},
			model, clusterOpt(), l, counted)
		if err == nil {
			t.Cleanup(srv.Stop)
		}
		return srv, addr, err
	}

	if _, _, err := start(2, initial); !isRemote(err) || !strings.Contains(err.Error(), "range index 2") {
		t.Fatalf("an announce for range 2 of 2: err %v, want a refusal naming the index", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("a refused announce dialed the coordinator %d times, want 1", n)
	}
	conn, err := g.dial(g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := announceRange(conn, -1, "negative"); !isRemote(err) || !strings.Contains(err.Error(), "range index -1") {
		t.Fatalf("an announce for range -1: err %v, want a refusal naming the index", err)
	}

	if _, _, err := start(0, initial[:5]); err == nil || !strings.Contains(err.Error(), "5 tensors, the coordinator's 6") {
		t.Fatalf("a member with a 5-tensor model: err %v, want a refusal naming both tensor counts", err)
	}
	eventuallyTrue(t, 5*time.Second, "the coordinator saw the failed member's stream end", func() bool {
		c := &g.coord.cluster
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.ranges[0].owner == nil
	})
	srv, addr, err := start(0, initial)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); st.Primary != "" || st.Entry != at(g.assignments[0], addr) {
		t.Fatalf("the next member for range 0 stands by for %q with entry %+v, want the owner at %+v",
			st.Primary, st.Entry, at(g.assignments[0], addr))
	}
	if m := g.coord.Status().Map; len(m) != 1 || m[0] != at(g.assignments[0], addr) {
		t.Fatalf("coordinator map %+v, want range 0 at %s alone", m, addr)
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
	clustered.cluster = true
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
	replica.replica = true
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
	if srv.Status().Pushes != 1 {
		t.Fatalf("server counted %d pushes, want 1", srv.Status().Pushes)
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
			standby, 2*time.Millisecond, obs.NewRegistry(), stop, nil, nil)
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
				if v := int(g.coord.Status().Pushes); v != workers*iters {
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
	mkSGD := func() *optimizer.SGD { return optimizer.NewSGD(0.1) }
	initial := seededModel(52)
	g := startTestGroupWith(t, workers, servers, core.MustNewBSP(workers), initial, mkSGD, Options{})

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
	// A data server acknowledges a fragment once ticketed, before applying
	// it: wait for every fragment the workers were released for.
	var got []*tensor.Tensor
	for _, st := range g.stores {
		st.WaitApplied(st.Reserved(), nil)
		part, _ := st.Snapshot()
		got = append(got, part...)
	}
	requireSameWeights(t, got, want)
	if v := g.stores[0].Version(); v != workers*iters {
		t.Fatalf("data store version %d, want %d", v, workers*iters)
	}
}

// TestBackupEndsAtItsPrimarysFinalVersion: a worker reports Done to its data
// servers before its coordinator, so a data server's run ends first. Its
// standby's run ends on the coordinator's report, with one last pull that the
// data server waits for: the standby ends at the version its owner ended at,
// however little time its replication stream had to catch up, and each stops
// as soon as its run completes.
func TestBackupEndsAtItsPrimarysFinalVersion(t *testing.T) {
	initial := seededModel(72)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	backup, _ := g.startStandby(t, 0, initial, nil)
	// The backup's replica session is data server 0's only one until the
	// worker connects.
	deadline := time.Now().Add(5 * time.Second)
	for len(g.data[0].Status().Sessions) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the backup never opened its replica session")
		}
		time.Sleep(time.Millisecond)
	}
	client, err := NewClusterClient(g.dial, g.coordAddr, 0, ClusterClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const iters = 5
	for it := 0; it < iters; it++ {
		_, version, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := client.PushAndWait(scheduledGrads(0, it), version, it); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Done(); err != nil {
		t.Fatal(err)
	}
	// Each server stops as soon as its run completes, as psserver does.
	ended := make(chan string, 2)
	for name, srv := range map[string]*Server{"data server 0": g.data[0], "the backup": backup} {
		go func() {
			select {
			case <-srv.AllWorkersDone():
				srv.Stop()
				ended <- ""
			case <-time.After(5 * time.Second):
				ended <- name + " never completed its run"
			}
		}()
	}
	for range 2 {
		if failure := <-ended; failure != "" {
			t.Fatal(failure)
		}
	}
	if b, p := backup.Status().Version, g.data[0].Status().Version; b != p || p != iters {
		t.Fatalf("the backup ended at version %d, its primary at %d; want both %d", b, p, iters)
	}
}

// TestBackupFindsItsPrimaryInTheMap: a second data server for a range the
// coordinator already gave to a live owner is told that owner, replicates its
// weights bit for bit, and takes the range over once the owner's announce
// stream ends. An announce at the live owner's own address is the owner
// restarted: its stream takes the old one's place, so the old stream's end
// promotes nobody, and only the new one's does.
func TestBackupFindsItsPrimaryInTheMap(t *testing.T) {
	initial := seededModel(71)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	const i = 1
	standby, addr := g.startStandby(t, i, initial, nil)

	client, err := NewClusterClient(g.dial, g.coordAddr, 0, ClusterClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for it := 0; it < 5; it++ {
		_, version, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := client.PushAndWait(scheduledGrads(0, it), version, it); err != nil {
			t.Fatal(err)
		}
	}
	// The owner acknowledged every fragment once ticketed: the standby
	// catches up once it holds all of them, applied.
	eventuallyTrue(t, 5*time.Second, "the standby caught up with its owner", func() bool {
		return standby.Store().Version() >= g.stores[i].Reserved()
	})
	if got := standby.Status().Primary; got != g.dataAddrs[i] {
		t.Fatalf("the standby replicates %q, want data server %d at %q", got, i, g.dataAddrs[i])
	}
	got, _ := standby.Store().Snapshot()
	want, _ := g.stores[i].Snapshot()
	requireSameWeights(t, got, want)

	before, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	owner := at(g.assignments[i], g.dataAddrs[i])
	named, restarted := g.announce(t, i, g.dataAddrs[i])
	if named != owner {
		t.Fatalf("an announce at the owner's address was named owner %+v, want %+v", named, owner)
	}
	g.data[i].Stop()
	time.Sleep(50 * time.Millisecond)
	if m, err := FetchClusterMap(g.dial, g.coordAddr); err != nil || m.MapVersion != before.MapVersion || standby.Status().Promoted {
		t.Fatalf("the old owner stream's end moved the map to version %d (from %d), promoted %v, err %v",
			m.MapVersion, before.MapVersion, standby.Status().Promoted, err)
	}

	restarted.Close()
	eventuallyTrue(t, 5*time.Second, "the standby promoted once the owner's stream ended", func() bool {
		return standby.Status().Promoted
	})
	m, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Servers) != 2 || m.Servers[i] != at(g.assignments[i], addr) || m.MapVersion != before.MapVersion+1 {
		t.Fatalf("map after promotion %+v at version %d, want entry %d to be %+v at %d",
			m.Servers, m.MapVersion, i, at(g.assignments[i], addr), before.MapVersion+1)
	}
}

// TestStandbyCutOffFromALiveOwnerIsNotPromoted: a standby that cannot reach
// its owner is not the judge of the owner's death. While the owner's announce
// stream stays open the range stays the owner's, however long the standby's
// dials fail; once the owner stops, the coordinator promotes the standby.
func TestStandbyCutOffFromALiveOwnerIsNotPromoted(t *testing.T) {
	initial := seededModel(74)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	cut := func(addr string) (transport.Conn, error) {
		if addr == g.dataAddrs[0] {
			return nil, fmt.Errorf("no route to %s", addr)
		}
		return g.dial(addr)
	}
	before, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	standby, addr := g.startStandby(t, 0, initial, cut)
	eventuallyTrue(t, 5*time.Second, "the standby named its owner", func() bool {
		return standby.Status().Primary == g.dataAddrs[0]
	})
	time.Sleep(5 * time.Second)
	m, err := FetchClusterMap(g.dial, g.coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	if st := standby.Status(); st.Promoted || m.MapVersion != before.MapVersion || m.Servers[0].Addr != g.dataAddrs[0] {
		t.Fatalf("a standby cut off from a live owner: promoted %v, map %+v at version %d (was %d)",
			st.Promoted, m.Servers, m.MapVersion, before.MapVersion)
	}
	if err := standby.FailureErr(); err != nil {
		t.Fatalf("the standby failed: %v", err)
	}

	g.data[0].Stop()
	eventuallyTrue(t, 5*time.Second, "the standby promoted once its owner stopped", func() bool {
		return standby.Status().Promoted
	})
	if m, err := FetchClusterMap(g.dial, g.coordAddr); err != nil || m.Servers[0] != at(g.assignments[0], addr) {
		t.Fatalf("map after promotion %+v (%v), want entry 0 at %s", m.Servers, err, addr)
	}
}

// TestClusterClientRecoversThroughPromotion is the ps-level failover drill:
// a worker trains against a 2-server group while a standby for server 0
// replicates it; the owner is killed, the coordinator promotes the standby,
// and the worker's next operations recover through the refreshed map —
// without any checkpoint-restore and without the run failing.
func TestClusterClientRecoversThroughPromotion(t *testing.T) {
	initial := seededModel(61)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	promoted, _ := g.startStandby(t, 0, initial, nil)

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
	// Wait for the stream to carry everything the owner ticketed (it
	// acknowledged each fragment before applying it), so the promoted weights
	// are exact (the schedule is quiescent at the kill).
	eventuallyTrue(t, 5*time.Second, "the standby caught up with its owner", func() bool {
		return promoted.Store().Version() >= g.stores[0].Reserved()
	})

	// Kill the owner; its announce stream ends and the coordinator promotes
	// the standby.
	g.data[0].Stop()
	eventuallyTrue(t, 5*time.Second, "the standby promoted", func() bool { return promoted.Status().Promoted })

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
	if promoted.Status().Pushes == 0 {
		t.Fatal("promoted standby received no pushes")
	}
	if promoted.Status().Dropped != 0 {
		t.Fatalf("promoted standby dropped %d pushes", promoted.Status().Dropped)
	}
	// The promotion path never used checkpoint-restore: the standby carried
	// straight on from the replication stream. The reference mirrors that
	// exactly — replicated shards restart with installed weights but cold
	// momentum (installReplica does not carry optimizer state; DESIGN.md §10),
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
		ref, err := newStoreRange(seededModel(61), clusterOpt(), g.globalShards, asg)
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
			if ref, err = newStoreRange(seededModel(61), clusterOpt(), g.globalShards, asg); err != nil {
				t.Fatal(err)
			}
			if err := ref.installReplica(snap, v); err != nil {
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

// within waits up to five seconds for ch, failing with what otherwise.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: nothing after 5s", what)
		panic("unreachable")
	}
}

// pulled is one Pull's outcome, its tensors copied off the lease.
type pulled struct {
	params  []*tensor.Tensor
	version int64
	err     error
}

// pullAsync runs c.Pull on a goroutine and delivers what it returned.
func pullAsync(c pusher) <-chan pulled {
	ch := make(chan pulled, 1)
	go func() {
		params, version, err := c.Pull()
		out := pulled{version: version, err: err}
		for _, p := range params {
			out.params = append(out.params, p.Clone())
		}
		ch <- out
	}()
	return ch
}

// dataServerClient registers worker w directly with g's data server i, in
// cluster mode, as a group worker's data link does.
func dataServerClient(t *testing.T, g *testGroup, i, w int) *Client {
	t.Helper()
	conn, err := g.dial(g.dataAddrs[i])
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, w)
	c.cluster = true
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDataServerOKPrecedesApplyAndPullWaitsForIt pins a data server's half of
// PROTOCOL.md §5b with its applier held inside the optimizer step: a
// fragment's OK arrives while the step is held, and a Pull sent after that
// OK is answered only once the step lands, with the fragment in the reply.
// Receive buffers are poisoned on release and the fragment is big enough to
// be leased, so a push lease ended by the early OK instead of at the apply
// gate would be stepped as NaN.
func TestDataServerOKPrecedesApplyAndPullWaitsForIt(t *testing.T) {
	poisonReleasedBodies(t)
	initial := []*tensor.Tensor{tensor.Full(1, 2048)}
	g := startTestGroup(t, 1, 1, core.MustNewASP(1), initial)
	gate := gateStoreSteps(t, g.stores[0])
	c := dataServerClient(t, g, 0, 0)
	grads := []*tensor.Tensor{tensor.Full(0.5, 2048)}

	if err := c.pushAsync(grads, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	within(t, gate.entered, "the fragment's step never began")
	ok := make(chan error, 1)
	go func() { ok <- c.waitOK() }()
	if err := within(t, ok, "no OK while the step is held"); err != nil {
		t.Fatal(err)
	}
	if v := g.stores[0].Version(); v != 0 {
		t.Fatalf("store at version %d while its only step is held", v)
	}
	reply := pullAsync(c)
	select {
	case r := <-reply:
		t.Fatalf("pull answered at version %d while the step was held", r.version)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.resume)
	r := within(t, reply, "pull unanswered after the step landed")
	if r.err != nil || r.version != 1 {
		t.Fatalf("pull returned version %d (%v), want 1", r.version, r.err)
	}
	ref, err := NewStoreSharded(initial, clusterOpt(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Apply(grads); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Snapshot()
	requireSameWeights(t, r.params, want)
}

// TestDataServerWindowedPullIsAnswered: a data server whose median
// aggregator windows all four workers' fragments still answers a Pull that
// follows a lone fragment's OK. The pull does not force the partial window
// open; the store's watchdog publishes it, as it bounds every partial window,
// and the reply holds the fragment. Receive buffers are poisoned on release,
// so a push lease ended by the early OK instead of at the apply gate would be
// stepped as NaN.
func TestDataServerWindowedPullIsAnswered(t *testing.T) {
	poisonReleasedBodies(t)
	initial := []*tensor.Tensor{tensor.Full(1, 2048)}
	g := startTestGroupWith(t, 4, 1, core.MustNewASP(4), initial, clusterOpt,
		Options{Aggregator: AggregatorConfig{Kind: AggMedian}})
	if w := g.stores[0].Window(); w != 4 {
		t.Fatalf("data server's aggregation window is %d, want 4", w)
	}
	c := dataServerClient(t, g, 0, 0)
	grads := []*tensor.Tensor{tensor.Full(0.5, 2048)}
	if err := c.PushAndWait(grads, 0, 0); err != nil {
		t.Fatal(err)
	}
	r := within(t, pullAsync(c), "pull parked behind a partial window")
	if r.err != nil || r.version != 1 {
		t.Fatalf("pull returned version %d (%v), want 1", r.version, r.err)
	}
	ref, err := NewStoreSharded(initial, clusterOpt(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Apply(grads); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Snapshot()
	requireSameWeights(t, r.params, want)
}

// TestGroupWindowedAggregatorOutvotesAnEarlyPuller: under an ASP coordinator,
// data servers whose median aggregator windows all three workers' fragments.
// The attacker pushes first and pulls as soon as it is released, while its
// fragment is still alone in the window. The pull waits for the window to
// fill rather than stepping the attacker's fragment alone, so every data
// server takes one step over all three fragments, and the weights the
// attacker reads are the ones the honest majority voted for. The watchdog is
// slowed so that only a full window publishes.
func TestGroupWindowedAggregatorOutvotesAnEarlyPuller(t *testing.T) {
	tick := watchdogTick
	watchdogTick = time.Hour
	t.Cleanup(func() { watchdogTick = tick })
	const workers = 3
	initial := seededModel(91)
	agg := AggregatorConfig{Kind: AggMedian}
	g := startTestGroupWith(t, workers, 2, core.MustNewASP(workers), initial, clusterOpt, Options{Aggregator: agg})
	clients := make([]*ClusterClient, workers)
	for w := range clients {
		c, err := NewClusterClient(g.dial, g.coordAddr, w, ClusterClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
		clients[w] = c
	}
	attack := scheduledGrads(0, 0)
	for _, p := range attack {
		p.Scale(1e6)
	}
	grads := [][]*tensor.Tensor{attack, scheduledGrads(1, 0), scheduledGrads(2, 0)}

	if err := clients[0].PushAndWait(grads[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	reply := pullAsync(clients[0])
	select {
	case r := <-reply:
		t.Fatalf("the attacker's pull was answered at version %d with its fragment alone in the window", r.version)
	case <-time.After(20 * time.Millisecond):
	}
	for w := 1; w < workers; w++ {
		if err := clients[w].PushAndWait(grads[w], 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	r := within(t, reply, "the attacker's pull after the window filled")
	if r.err != nil || r.version != workers {
		t.Fatalf("the attacker pulled version %d (%v), want %d", r.version, r.err, workers)
	}

	ref, err := NewStoreSharded(initial, clusterOpt(), g.globalShards)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.SetAggregator(agg, workers); err != nil {
		t.Fatal(err)
	}
	for _, gr := range grads {
		if _, err := ref.EnqueueApply(gr); err != nil {
			t.Fatal(err)
		}
	}
	if !ref.WaitApplied(workers, timeoutChan(t)) {
		t.Fatal("the reference store never stepped its window")
	}
	want, _ := ref.Snapshot()
	requireSameWeights(t, r.params, want)
}

// TestGroupBSPReleaseReadsEveryTicketedFragment: under BSP the coordinator
// releases a round while data server 0 still holds one of the round's
// fragments inside its optimizer step — an OK no longer waits for the apply
// — and each released worker's next pull reads every fragment of the round,
// bit-identical to the serial schedule.
func TestGroupBSPReleaseReadsEveryTicketedFragment(t *testing.T) {
	initial := seededModel(71)
	g := startTestGroup(t, 2, 2, core.MustNewBSP(2), initial)
	gate := gateStoreSteps(t, g.stores[0])
	clients := make([]*ClusterClient, 2)
	for w := range clients {
		c, err := NewClusterClient(g.dial, g.coordAddr, w, ClusterClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
		clients[w] = c
	}
	push := func(w int) <-chan error {
		ch := make(chan error, 1)
		go func() { ch <- clients[w].PushAndWait(scheduledGrads(w, 0), 0, 0) }()
		return ch
	}
	// Worker 0's fragment is held in one shard's step on data server 0.
	// Worker 1 pushes once data server 1 and every other shard of data
	// server 0 have applied worker 0's, so no shard takes both fragments as
	// one batch and every shard applies the round in the serial order.
	released0 := push(0)
	within(t, gate.entered, "worker 0's fragment never reached the step")
	othersApplied := func() bool {
		for _, sh := range g.stores[0].shards {
			if sh != gate.held && sh.applied.Load() < 1 {
				return false
			}
		}
		return g.stores[1].Version() >= 1
	}
	deadline := time.Now().Add(5 * time.Second)
	for !othersApplied() {
		if time.Now().After(deadline) {
			t.Fatal("the unheld shards never applied worker 0's fragment")
		}
		time.Sleep(time.Millisecond)
	}
	released1 := push(1)
	for w, ch := range []<-chan error{released0, released1} {
		if err := within(t, ch, fmt.Sprintf("worker %d not released while the step was held", w)); err != nil {
			t.Fatal(err)
		}
	}
	if v := g.stores[0].Version(); v != 0 {
		t.Fatalf("data server 0 at version %d while its first step is held", v)
	}
	replies := []<-chan pulled{pullAsync(clients[0]), pullAsync(clients[1])}
	close(gate.resume)
	want, _ := referenceRun(t, initial, g.globalShards, [][2]int{{0, 0}, {1, 0}})
	for w, ch := range replies {
		r := within(t, ch, fmt.Sprintf("worker %d's pull", w))
		if r.err != nil || r.version != 2 {
			t.Fatalf("worker %d pulled version %d (%v), want 2", w, r.version, r.err)
		}
		requireSameWeights(t, r.params, want)
	}
}

// faultConn is a connection that may carry one scripted fault: while armed
// (shared by every faultConn to one address) is set, the first Weights frame
// Recv would return is dropped, armed cleared and the connection closed, as a
// link dies with a reply in flight. pulls counts the Pull frames sent on
// every faultConn of one test, by address.
type faultConn struct {
	transport.Conn
	addr  string
	armed *bool
	pulls map[string]int
	mu    *sync.Mutex
}

func (f *faultConn) Send(m transport.Message) error {
	if m.Type == transport.MsgPull {
		f.mu.Lock()
		f.pulls[f.addr]++
		f.mu.Unlock()
	}
	return f.Conn.Send(m)
}

func (f *faultConn) Recv() (transport.Message, error) {
	m, err := f.Conn.Recv()
	if err != nil || m.Type != transport.MsgWeights || f.armed == nil {
		return m, err
	}
	f.mu.Lock()
	fire := *f.armed
	*f.armed = false
	f.mu.Unlock()
	if fire {
		m.Release()
		f.Conn.Close()
		return transport.Message{}, errors.New("scripted fault: link lost with a reply in flight")
	}
	return m, err
}

// faultDial wraps dial so that every connection counts its pulls in pulls,
// and the first Weights reply on a connection to faulty fails (a connect's
// layout request to faulty gets none).
func faultDial(dial func(string) (transport.Conn, error), faulty string) (func(string) (transport.Conn, error), map[string]int) {
	var mu sync.Mutex
	pulls := map[string]int{}
	armed := true
	return func(addr string) (transport.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		f := &faultConn{Conn: conn, addr: addr, pulls: pulls, mu: &mu}
		if addr == faulty {
			f.armed = &armed
		}
		return f, nil
	}, pulls
}

// TestPipelinedPullRecoversOnlyTheFailedLink: a group worker sends both data
// links' Pulls before it receives either reply. When the first link dies with
// its reply in flight, the reply already on its way over the second link is
// still received, and only the first link's range is pulled again, over its
// replacement: the next push's OK is not mistaken for a Weights frame left
// unread, and the weights are the right ones. On a one-link route the same
// fault goes to the caller.
func TestPipelinedPullRecoversOnlyTheFailedLink(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		initial := seededModel(81)
		g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
		dial, pulls := faultDial(g.dial, g.dataAddrs[0])
		c, err := Connect(Route{Dial: dial, Addr: g.coordAddr}, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		params, version, err := c.Pull()
		if err != nil {
			t.Fatalf("pull across the failed link: %v", err)
		}
		requireSameWeights(t, params, initial)
		if a, b := pulls[g.dataAddrs[0]], pulls[g.dataAddrs[1]]; a != 2 || b != 1 {
			t.Fatalf("data servers got %d and %d Pulls, want 2 (the failed link, re-pulled) and 1", a, b)
		}
		if err := c.Push(scheduledGrads(0, 0), nil, version, 0, false); err != nil {
			t.Fatalf("push after the recovered pull: %v", err)
		}
		params, version, err = c.Pull()
		if err != nil || version != 1 {
			t.Fatalf("second pull: version %d (%v), want 1", version, err)
		}
		want, _ := referenceRun(t, initial, g.globalShards, [][2]int{{0, 0}})
		requireSameWeights(t, params, want)
	})
	t.Run("flat", func(t *testing.T) {
		st := testStore(t, 2048)
		srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		l := transport.NewChanListener()
		t.Cleanup(func() { l.Close() })
		go func() { _ = srv.Serve(l) }()
		dial, _ := faultDial(func(string) (transport.Conn, error) { return l.Dial() }, l.Addr())
		c, err := Connect(Route{Dial: dial, Addr: l.Addr()}, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, err := c.Pull(); err == nil || !strings.Contains(err.Error(), "scripted fault") {
			t.Fatalf("one-link pull across the fault returned %v, want the fault", err)
		}
	})
}

// TestClusterPushFromFactorsMatchesProduct: an fp16 group push that hands
// gradients on as their factors lands on the data servers bit for bit as the
// push of the stored products does. The factors fragment with the tensors:
// tensor 0's go to data server 0's compressor, the last tensor's to the last
// server's, and a dense group's client takes none.
func TestClusterPushFromFactorsMatchesProduct(t *testing.T) {
	fp16 := compress.Config{Codec: compress.FP16}
	initial := seededModel(73)
	last := len(clusterShapes) - 2 // the last two-dimensional tensor
	pushed := func(factored bool) []*tensor.Tensor {
		g := startTestGroupWith(t, 1, 2, core.MustNewASP(1), initial, clusterOpt, Options{Compression: fp16})
		c, err := NewClusterClient(g.dial, g.coordAddr, 0, ClusterClientConfig{Compression: fp16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if !c.PushFactors() {
			t.Fatal("an fp16 group client takes no factors")
		}
		rng := rand.New(rand.NewSource(5))
		for it := 0; it < 3; it++ {
			grads := scheduledGrads(0, it)
			factors := make([]tensor.Factors, len(grads))
			for _, i := range []int{0, last} {
				m, n := grads[i].Dim(0), grads[i].Dim(1)
				ab := randomGrads(rng, []int{3, m}, []int{3, n})
				factors[i] = tensor.Factors{A: ab[0], B: ab[1]}
				tensor.MatMulTransAInto(grads[i], factors[i].A, factors[i].B)
			}
			if factored {
				for _, i := range []int{0, last} {
					grads[i] = tensor.New(grads[i].Shape()...)
				}
			} else {
				factors = nil
			}
			_, v, err := c.Pull()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Push(grads, factors, v, it, false); err != nil {
				t.Fatal(err)
			}
		}
		params, _, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			out[i] = p.Clone()
		}
		return out
	}
	requireSameWeights(t, pushed(true), pushed(false))

	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	c, err := NewClusterClient(g.dial, g.coordAddr, 0, ClusterClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if c.PushFactors() {
		t.Fatal("a dense group client takes factors")
	}
}
