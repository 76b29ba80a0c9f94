package trainer

import (
	"math/rand"
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/ps"
	"dssp/internal/transport"
)

// TestClusterModeMatchesSingleServer pins the in-process server-group
// topology against the classic single server: a serial schedule (one
// worker, so every push applies alone) must produce the identical final
// accuracy, and the same number of applied updates, whether the store lives
// in one server or is range-partitioned across three.
func TestClusterModeMatchesSingleServer(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4})
	cfg.Workers = 1
	cfg.Momentum = 0.9

	single, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ClusterServers = 3
	group, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.Updates != group.Updates {
		t.Fatalf("updates: single %d, group %d", single.Updates, group.Updates)
	}
	if single.FinalAccuracy != group.FinalAccuracy {
		t.Fatalf("final accuracy: single %v, group %v (serial schedule must be bit-identical)",
			single.FinalAccuracy, group.FinalAccuracy)
	}
}

// TestClusterModeTrainsUnderEveryParadigm runs the group topology with
// concurrent workers (coalescing, interleaving — no bit-identity claim) and
// asserts it still converges under each paradigm.
func TestClusterModeTrainsUnderEveryParadigm(t *testing.T) {
	paradigms := []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmSSP, Staleness: 3},
		{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
	}
	for _, p := range paradigms {
		p := p
		t.Run(p.Describe(), func(t *testing.T) {
			cfg := smallConfig(p)
			cfg.ClusterServers = 2
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Updates == 0 {
				t.Fatal("no updates were applied")
			}
			if res.FinalAccuracy < 0.7 {
				t.Fatalf("final accuracy %.4f under %s never converged", res.FinalAccuracy, p.Describe())
			}
			if len(res.Crashed) != 0 {
				t.Fatalf("workers crashed: %v", res.Crashed)
			}
		})
	}
}

// TestClusterModeRejectsBadLayout pins the validation surface: more servers
// than tensors cannot each own a shard.
func TestClusterModeRejectsBadLayout(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmASP})
	cfg.ClusterServers = 100
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected a layout error for 100 data servers")
	}
}

// TestWorkerLoopRejoinsGroup: a group worker whose coordinator connection
// dies mid-run — the release of one push never arrives — reconnects with
// Reconnect set: the coordinator gets a Rejoin, the data servers a fresh
// registration, and the interrupted iteration is redone from a fresh pull, so
// the run finishes every iteration. The push whose release was lost had
// already been ticketed, so the coordinator counts it twice: the
// at-least-once redo a flat reconnect has too.
func TestWorkerLoopRejoinsGroup(t *testing.T) {
	const iterations, cutAt = 8, 3
	build := func() *nn.Network { return nn.SmallMLP(rand.New(rand.NewSource(7)), 16, 8, 4) }
	group, err := buildCluster(Config{Workers: 1, ClusterServers: 2, LearningRate: 0.05}, core.MustNewASP(1), build().Params())
	if err != nil {
		t.Fatal(err)
	}
	defer group.stop()
	route, coordDials := group.route, 0
	route.Dial = func(addr string) (transport.Conn, error) {
		conn, err := group.route.Dial(addr)
		// The first dial to the coordinator fetches the map, the second is
		// the worker's session there.
		if addr == route.Addr && err == nil {
			if coordDials++; coordDials == 2 {
				conn = &cutConn{Conn: conn, kind: transport.MsgOK, cutAt: cutAt}
			}
		}
		return conn, err
	}
	train := data.MustSynthetic(data.SyntheticConfig{
		Examples: 32, Classes: 4, Channels: 1, Size: 16, Noise: 0.3, Flat: true, Seed: 3,
	})
	batches, err := data.NewBatchIterator(train, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunWorker(Worker{
		Connect: func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
			return ps.Connect(route, rejoin, lastVersion)
		},
		Reconnect:  true,
		Replica:    build(),
		Batches:    batches,
		Iterations: iterations,
		CrashAt:    NoCrash,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations != iterations || report.Reconnects != 1 {
		t.Fatalf("%d iterations over %d reconnects, want %d over 1", report.Iterations, report.Reconnects, iterations)
	}
	coord := group.policyServer
	if coord.Status().Rejoins != 1 {
		t.Errorf("coordinator counted %d rejoins, want 1", coord.Status().Rejoins)
	}
	if n := int(coord.Status().Pushes); n != iterations+1 {
		t.Errorf("coordinator counted %d pushes, want %d: every iteration once, the cut one twice", n, iterations+1)
	}
	select {
	case <-coord.AllWorkersDone():
	case <-time.After(5 * time.Second):
		t.Fatal("the coordinator never saw the rejoined worker finish")
	}
}

// TestGroupDataServersRunTheirRoleOptions: an in-process group's data servers
// act on what psserver's data servers act on. Under a Lease, a data
// server names its lease in the Registered reply, and its lease monitor
// evicts a session that falls silent there, as `psserver -role data
// -lease` does.
func TestGroupDataServersRunTheirRoleOptions(t *testing.T) {
	params := nn.SmallMLP(rand.New(rand.NewSource(7)), 16, 8, 4).Params()
	group, err := buildCluster(Config{Workers: 1, ClusterServers: 2, LearningRate: 0.05,
		Options: ps.Options{Lease: 50 * time.Millisecond}}, core.MustNewASP(1), params)
	if err != nil {
		t.Fatal(err)
	}
	defer group.stop()
	entries := group.policyServer.Status().Map
	if len(entries) != 2 {
		t.Fatalf("map lists %d data servers, want 2", len(entries))
	}
	conn, err := group.route.Dial(entries[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A bare registration, not a client: nothing heartbeats under the lease.
	if err := conn.Send(transport.Message{Type: transport.MsgRegister, Worker: 0}); err != nil {
		t.Fatal(err)
	}
	if reply, err := conn.Recv(); err != nil || reply.Type != transport.MsgRegistered || reply.Lease != 50*time.Millisecond {
		t.Fatalf("registration answered %+v, %v; want Registered naming the 50ms lease", reply, err)
	}
	departures := func() (n uint64) {
		for _, s := range group.servers[1:] {
			n += s.Status().Departures
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); departures() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no data server evicted the silent session")
		}
	}
}
