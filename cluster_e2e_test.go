package dssp_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dssp"
	"dssp/internal/cluster/clustertest"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// dialBinary opens one binary-wire connection for test-side inspection.
func dialBinary(addr string) (transport.Conn, error) {
	return transport.DialWire(addr, transport.WireBinary)
}

// replicaWeights reads one server's full weight vector through a read-only
// replica session — the same mechanism backups and cluster evaluation use.
func replicaWeights(t *testing.T, addr string) ([]*tensor.Tensor, int64) {
	t.Helper()
	conn, err := dialBinary(addr)
	if err != nil {
		t.Fatalf("replica dial %s: %v", addr, err)
	}
	client, err := ps.OpenReplica(conn)
	if err != nil {
		t.Fatalf("replica register at %s: %v", addr, err)
	}
	defer client.Close()
	params, version, err := client.Pull()
	if err != nil {
		t.Fatalf("replica pull from %s: %v", addr, err)
	}
	return params, version
}

// groupWeights assembles a server group's full weight vector from the
// cluster map, tensor ranges stitched in shard-owner order.
func groupWeights(t *testing.T, coordAddr string) ([]*tensor.Tensor, int64) {
	t.Helper()
	m, err := ps.FetchClusterMap(dialBinary, coordAddr)
	if err != nil {
		t.Fatalf("fetch cluster map: %v", err)
	}
	out := make([]*tensor.Tensor, m.Total)
	version := int64(-1)
	for _, e := range m.Servers {
		params, v := replicaWeights(t, e.Addr)
		copy(out[e.TensorLo:e.TensorHi], params)
		if version < 0 || v < version {
			version = v
		}
	}
	for i, p := range out {
		if p == nil {
			t.Fatalf("cluster map covers no owner for tensor %d", i)
		}
	}
	return out, version
}

// requireSameWeights asserts bitwise equality of two weight vectors.
func requireSameWeights(t *testing.T, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tensor count: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i].Data(), want[i].Data()
		if len(g) != len(w) {
			t.Fatalf("tensor %d size: got %d, want %d", i, len(g), len(w))
		}
		for j := range g {
			if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
				t.Fatalf("tensor %d value %d: got %v, want %v", i, j, g[j], w[j])
			}
		}
	}
}

// e2eSyncs is the paradigm matrix the convergence tests sweep.
var e2eSyncs = []dssp.Sync{
	{Paradigm: dssp.BSP},
	{Paradigm: dssp.SSP, Staleness: 2},
	{Paradigm: dssp.DSSP, Staleness: 1, Range: 4},
}

// TestClusterBitIdenticalToSingleServerTCP pins the tentpole's correctness
// end to end over real TCP: a deterministic schedule (one worker, so every
// push applies serially) trained against a 2- and 3-server group produces
// the byte-exact weights of the same schedule against a single server, under
// each paradigm, with a stateful (momentum) optimizer. One Options.Shards
// sizes the single server's store and the group's layout alike.
func TestClusterBitIdenticalToSingleServerTCP(t *testing.T) {
	base := clustertest.Config{
		Workers:  1,
		Epochs:   1,
		Momentum: 0.9,
		Options:  dssp.Options{Shards: 3},
	}
	for _, sync := range e2eSyncs {
		cfg := base
		cfg.Sync = sync
		t.Run(sync.Paradigm.String(), func(t *testing.T) {
			single := clustertest.Start(t, cfg)
			if reports, errs := single.RunWorkers(nil); errs[0] != nil {
				t.Fatalf("standalone worker: %v", errs[0])
			} else if reports[0].Iterations == 0 {
				t.Fatal("standalone worker ran no iterations")
			}
			want, wantVersion := replicaWeights(t, single.CoordinatorAddr())

			for _, servers := range []int{2, 3} {
				t.Run(fmt.Sprintf("%d-servers", servers), func(t *testing.T) {
					gcfg := cfg
					gcfg.Servers = servers
					group := clustertest.Start(t, gcfg)
					if _, errs := group.RunWorkers(nil); errs[0] != nil {
						t.Fatalf("cluster worker: %v", errs[0])
					}
					if m, err := ps.FetchClusterMap(dialBinary, group.CoordinatorAddr()); err != nil {
						t.Fatal(err)
					} else if m.StoreShards != cfg.Options.Shards {
						t.Fatalf("group runs %d shards, Options.Shards is %d", m.StoreShards, cfg.Options.Shards)
					}
					got, gotVersion := groupWeights(t, group.CoordinatorAddr())
					if gotVersion != wantVersion {
						t.Fatalf("version: group %d, single %d", gotVersion, wantVersion)
					}
					requireSameWeights(t, got, want)
				})
			}
		})
	}
}

// TestClusterConvergesWithCompressionAndCoalescing relaxes the determinism
// constraints — three concurrent workers (so data servers coalesce pending
// fragments) pushing fp16-compressed gradients — and
// asserts the group still converges to the single-server ballpark.
func TestClusterConvergesWithCompressionAndCoalescing(t *testing.T) {
	base := clustertest.Config{
		Workers: 3,
		Epochs:  3,
		Sync:    dssp.Sync{Paradigm: dssp.DSSP, Staleness: 1, Range: 4},
		Options: dssp.Options{
			Compression: dssp.Compression{Codec: dssp.CompressFP16},
		},
	}
	single := clustertest.Start(t, base)
	if _, errs := single.RunWorkers(nil); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("standalone workers: %v", errs)
	}
	singleAcc := single.Evaluate()

	gcfg := base
	gcfg.Servers = 2
	group := clustertest.Start(t, gcfg)
	if _, errs := group.RunWorkers(nil); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("cluster workers: %v", errs)
	}
	groupAcc := group.Evaluate()

	t.Logf("accuracy: single %.4f, 2-server group %.4f", singleAcc, groupAcc)
	if singleAcc < 0.6 {
		t.Fatalf("single-server baseline never converged: %.4f", singleAcc)
	}
	if groupAcc < singleAcc-0.15 {
		t.Fatalf("group accuracy %.4f trails single-server %.4f by more than 0.15", groupAcc, singleAcc)
	}
}

// TestClusterFailoverPromotesBackup is the failover leg of the matrix: a
// data server dies mid-run, the coordinator promotes its standby, which holds
// the streamed weights (no checkpoint-restore involved), the workers recover through a
// cluster-map refetch — without re-registering, so the paradigm's staleness
// accounting is undisturbed — and training completes.
func TestClusterFailoverPromotesBackup(t *testing.T) {
	cfg := clustertest.Config{
		Servers: 2,
		Backups: 1,
		Workers: 2,
		Epochs:  3,
	}
	c := clustertest.Start(t, cfg)

	done := make(chan struct{})
	var reports []*dssp.WorkerReport
	var errs []error
	go func() {
		defer close(done)
		reports, errs = c.RunWorkers(func(id int, wcfg *dssp.WorkerConfig) {
			wcfg.Delay = 15 * time.Millisecond
		})
	}()

	// Let the run get going, then crash the backed-up primary.
	time.Sleep(250 * time.Millisecond)
	c.KillData(0)
	c.WaitPromoted(0, 10*time.Second)

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workers did not finish after failover")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	for id, r := range reports {
		if r.Iterations == 0 {
			t.Fatalf("worker %d ran no iterations", id)
		}
	}
	c.WaitDone(30 * time.Second)

	// Recovery must go through map refetch, not session churn: no rejoins,
	// and the paradigm never dropped an update to ride out the failover.
	if n := c.Coordinator.Status().Rejoins; n != 0 {
		t.Errorf("coordinator saw %d rejoins; failover must not re-register workers", n)
	}
	if n := c.Coordinator.Status().Dropped; n != 0 {
		t.Errorf("coordinator dropped %d updates during failover", n)
	}
	if !c.Backups[0].Status().Promoted {
		t.Error("backup does not report promotion")
	}
	if acc := c.Evaluate(); acc < 0.5 {
		t.Errorf("final accuracy %.4f after failover never converged", acc)
	}
}

// TestClusterBackupEndsWithItsGroup: a standby serves no workers, so the
// coordinator's report that the run is complete is its end of the run: its
// Done closes, and once every other member stops, as psserver does at the
// end of a run, it neither fails nor is promoted.
func TestClusterBackupEndsWithItsGroup(t *testing.T) {
	c := clustertest.Start(t, clustertest.Config{Servers: 2, Backups: 1, Workers: 2, Epochs: 1})
	if _, errs := c.RunWorkers(nil); errs[0] != nil || errs[1] != nil {
		t.Fatalf("workers: %v", errs)
	}
	backup := c.Backups[0]
	select {
	case <-backup.Done():
	case <-backup.Failed():
		t.Fatalf("backup failed: %v", backup.FailureErr())
	case <-time.After(10 * time.Second):
		t.Fatal("the backup's Done never closed after the run completed")
	}
	c.KillCoordinator()
	c.KillData(1)
	c.KillData(0)
	select {
	case <-backup.Failed():
		t.Fatalf("backup failed after a complete run: %v", backup.FailureErr())
	case <-time.After(3 * time.Second):
	}
	if backup.Status().Promoted {
		t.Fatal("backup promoted after a complete run")
	}
}

// TestRestartedMemberStandsByThePromotedOwner: a data server that dies
// mid-run loses its range to its standby for good. A fresh member started for
// the same index after the promotion stands by for the promoted owner instead
// of taking the range back: the coordinator's map names the promoted owner
// for the rest of the run, and the fresh member ends at the owner's final
// store version, never promoted.
func TestRestartedMemberStandsByThePromotedOwner(t *testing.T) {
	c := clustertest.Start(t, clustertest.Config{Servers: 2, Backups: 1, Workers: 2, Epochs: 4})
	done := make(chan struct{})
	var errs []error
	go func() {
		defer close(done)
		_, errs = c.RunWorkers(func(id int, wcfg *dssp.WorkerConfig) {
			wcfg.Delay = 15 * time.Millisecond
		})
	}()
	time.Sleep(250 * time.Millisecond)
	c.KillData(0)
	c.WaitPromoted(0, 10*time.Second)
	owner := c.Backups[0]
	fresh := c.StartStandby(0)

	// The map keeps naming the promoted owner until the run completes.
	mapped := func() string { return c.Coordinator.Status().Map[0].Addr }
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(5 * time.Millisecond):
		}
		if got := mapped(); got != owner.Addr() {
			t.Fatalf("the coordinator's map names %s for range 0, want the promoted owner %s", got, owner.Addr())
		}
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	c.WaitDone(30 * time.Second)
	for name, srv := range map[string]*dssp.Server{"the promoted owner": owner, "the fresh member": fresh} {
		select {
		case <-srv.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never completed its run", name)
		}
	}
	st := fresh.Status()
	if st.Primary != owner.Addr() || st.Promoted {
		t.Fatalf("the fresh member replicates %q, promoted %v; want %s, not promoted", st.Primary, st.Promoted, owner.Addr())
	}
	if want := owner.Status().Version; st.Version != want {
		t.Fatalf("the fresh member ended at store version %d, the owner at %d", st.Version, want)
	}
}

// TestClusterCoordinatorDeathFailsFast pins the documented failure model
// (DESIGN.md §10): the coordinator is the single serialization point,
// so losing it ends the run quickly and loudly — workers error out and data
// servers close their Failed channels — instead of anything limping along
// with undefined staleness.
func TestClusterCoordinatorDeathFailsFast(t *testing.T) {
	cfg := clustertest.Config{
		Servers: 2,
		Workers: 1,
		Epochs:  3,
	}
	c := clustertest.Start(t, cfg)

	done := make(chan error, 1)
	go func() {
		_, errs := c.RunWorkers(func(id int, wcfg *dssp.WorkerConfig) {
			wcfg.Delay = 15 * time.Millisecond
		})
		done <- errs[0]
	}()

	time.Sleep(250 * time.Millisecond)
	c.KillCoordinator()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker finished cleanly without a coordinator")
		}
		t.Logf("worker failed fast: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("worker did not fail within 15s of coordinator death")
	}
	for i, srv := range c.Data {
		select {
		case <-srv.Failed():
			if err := srv.FailureErr(); err == nil || !strings.Contains(err.Error(), "coordinator") {
				t.Errorf("data server %d failure cause %v does not name the coordinator", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("data server %d did not fail within 15s of coordinator death", i)
		}
	}
}

// lateDone delays the Done frames sent on a connection: the worker believes
// they left, and they reach the peer half a second later.
type lateDone struct{ transport.Conn }

func (c lateDone) Send(m transport.Message) error {
	if m.Type != transport.MsgDone {
		return c.Conn.Send(m)
	}
	go func() {
		time.Sleep(500 * time.Millisecond)
		_ = c.Conn.Send(m)
	}()
	return nil
}

// TestClusterDataServerOutlivesCompletedCoordinator pins the end-of-run
// ordering: a coordinator that saw every worker finish tells its data servers
// so on their announce streams before anything stops it, so a data server
// whose own workers' Done frames arrive well after the coordinator stopped
// still ends cleanly instead of reporting the coordinator lost.
func TestClusterDataServerOutlivesCompletedCoordinator(t *testing.T) {
	c := clustertest.Start(t, clustertest.Config{Servers: 1, Workers: 1})
	coordAddr := c.CoordinatorAddr()
	route := ps.Route{
		Dial: func(addr string) (transport.Conn, error) {
			conn, err := dialBinary(addr)
			if err != nil || addr == coordAddr {
				return conn, err
			}
			return lateDone{conn}, nil
		},
		Addr:        coordAddr,
		Compression: dssp.Compression{Codec: dssp.CompressAuto},
	}
	worker, err := ps.Connect(route, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	if err := worker.Done(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Coordinator.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the coordinator never saw the worker's Done")
	}
	c.KillCoordinator()

	data := c.Data[0]
	select {
	case <-data.Done():
	case <-data.Failed():
		t.Fatalf("data server failed after its coordinator completed the run: %v", data.FailureErr())
	case <-time.After(10 * time.Second):
		t.Fatal("the data server never saw its worker's Done")
	}
	select {
	case <-data.Failed():
		t.Fatalf("data server failed after its coordinator completed the run: %v", data.FailureErr())
	default:
	}
}

// TestClusterSmoke is `make cluster-smoke`: a 3-data-server group over real
// TCP trains a 4-worker DSSP run to completion, and the model assembled
// from the shard owners must hit the accuracy floor. -count=1 in the make
// target defeats the test cache — this is an end-to-end network run.
func TestClusterSmoke(t *testing.T) {
	cfg := clustertest.Config{
		Servers: 3,
		Workers: 4,
		Epochs:  3,
		Sync:    dssp.Sync{Paradigm: dssp.DSSP, Staleness: 1, Range: 4},
	}
	c := clustertest.Start(t, cfg)
	reports, errs := c.RunWorkers(nil)
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	total := 0
	for _, r := range reports {
		total += r.Iterations
	}
	c.WaitDone(60 * time.Second)
	if v := c.Coordinator.Status().Version; v != int64(total) {
		t.Errorf("coordinator clock %d does not match the %d pushed iterations", v, total)
	}
	if acc := c.Evaluate(); acc < 0.7 {
		t.Fatalf("final accuracy %.4f below the 0.70 smoke floor", acc)
	} else {
		t.Logf("cluster smoke: %d iterations across %d workers, final accuracy %.4f", total, len(reports), acc)
	}
}

// TestClusterRejectsCrossModeClients: a worker declares no mode, so none
// can be crossed. The server it dials says what it is: a worker whose config
// says it is no group member, pointed at a coordinator, trains in the group,
// and one whose config says it is, pointed at a flat server, trains flat.
// What is still refused is a partial model: a data server evaluates none.
func TestClusterRejectsCrossModeClients(t *testing.T) {
	group := clustertest.Start(t, clustertest.Config{Servers: 2, Workers: 1})
	classicCfg := group.WorkerConfig(0)
	classicCfg.Cluster = false
	if _, err := dssp.RunWorker(classicCfg); err != nil {
		t.Fatalf("worker with Cluster unset, pointed at a coordinator: %v", err)
	}
	group.WaitDone(30 * time.Second)
	if n := group.Coordinator.Status().Pushes; n == 0 {
		t.Fatal("the coordinator ticketed no push: the worker did not train in the group")
	}
	for i, d := range group.Data {
		if n := d.Status().Pushes; n == 0 {
			t.Fatalf("data server %d applied no fragment", i)
		}
	}

	single := clustertest.Start(t, clustertest.Config{Servers: 0, Workers: 1})
	clusterCfg := single.WorkerConfig(0)
	clusterCfg.Cluster = true
	report, err := dssp.RunWorker(clusterCfg)
	if err != nil {
		t.Fatalf("worker with Cluster set, pointed at a flat server: %v", err)
	}
	single.WaitDone(30 * time.Second)
	if n := single.Coordinator.Status().Pushes; n != uint64(report.Iterations) {
		t.Fatalf("flat server applied %d updates for the worker's %d iterations", n, report.Iterations)
	}

	// A data server holds only its shard range: evaluation must redirect to
	// the coordinator instead of silently scoring a partial model.
	if _, err := group.Data[0].Evaluate(); err == nil {
		t.Fatal("data server evaluated a partial model")
	}
}

// layoutMember is one member of the group the layout tests stand up: the
// small MLP on 16 features and 4 classes, 4 tensors, which a coordinator of
// two data servers lays out in its default 4 shards.
func layoutMember(t *testing.T, opts dssp.Options, cluster dssp.ClusterOptions) (*dssp.Server, error) {
	t.Helper()
	s, err := dssp.Serve(dssp.ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      1,
		Sync:         dssp.Sync{Paradigm: dssp.ASP},
		Model:        dssp.ModelSmallMLP,
		Dataset:      dssp.DatasetConfig{Examples: 32, Classes: 4, ImageSize: 16, Seed: 1},
		LearningRate: 0.1,
		Seed:         1,
		Options:      opts,
		Cluster:      cluster,
	})
	if err == nil {
		t.Cleanup(s.Stop)
	}
	return s, err
}

// trainLayoutGroup runs one worker against the coordinator at addr to the
// end of its run.
func trainLayoutGroup(t *testing.T, addr string) {
	t.Helper()
	if _, err := dssp.RunWorker(dssp.WorkerConfig{ServerAddr: addr, Workers: 1, Model: dssp.ModelSmallMLP,
		Dataset: dssp.DatasetConfig{Examples: 32, Classes: 4, ImageSize: 16, Seed: 1}, BatchSize: 8, Epochs: 1, Seed: 1}); err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestDataServerShardsRefused: the coordinator lays the group out, so a data
// server given a shard count is refused by Serve, naming the option, and
// never enters the map; a later correct member completes the map, and a
// worker trains against it.
func TestDataServerShardsRefused(t *testing.T) {
	coord, err := layoutMember(t, dssp.Options{}, dssp.ClusterOptions{Role: dssp.RoleCoordinator, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := func(opts dssp.Options) (*dssp.Server, error) {
		return layoutMember(t, opts, dssp.ClusterOptions{Role: dssp.RoleData, Coordinator: coord.Addr(), Servers: 2, Index: 1})
	}
	if _, err := layoutMember(t, dssp.Options{}, dssp.ClusterOptions{Role: dssp.RoleData, Coordinator: coord.Addr(), Servers: 2, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := data(dssp.Options{Shards: 3}); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("a data server given Shards: Serve err %v, want a refusal naming Shards", err)
	}
	if m := coord.Status().Map; len(m) != 1 {
		t.Fatalf("coordinator map %+v, want data server 0 alone", m)
	}
	if _, err := data(dssp.Options{}); err != nil {
		t.Fatal(err)
	}
	if m := coord.Status().Map; len(m) != 2 {
		t.Fatalf("coordinator map %+v, want both data servers", m)
	}
	trainLayoutGroup(t, coord.Addr())
}

// TestDataServerServersIgnored: a data server reads no group size. One given
// another Servers than its coordinator's is told the coordinator's range for
// its index and owns it; once it stops, a correct member for the index takes
// the same range over, the map holds the coordinator's two ranges and no
// more, and a worker trains against it.
func TestDataServerServersIgnored(t *testing.T) {
	coord, err := layoutMember(t, dssp.Options{}, dssp.ClusterOptions{Role: dssp.RoleCoordinator, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := func(servers, index int) *dssp.Server {
		s, err := layoutMember(t, dssp.Options{}, dssp.ClusterOptions{Role: dssp.RoleData, Coordinator: coord.Addr(), Servers: servers, Index: index})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	data(2, 0)
	odd := data(3, 1)
	// mapped waits until the coordinator's map holds two entries, the second
	// at addr, and returns it.
	mapped := func(addr string) []transport.ServerEntry {
		deadline := time.Now().Add(5 * time.Second)
		for {
			m := coord.Status().Map
			if len(m) == 2 && m[1].Addr == addr {
				return m
			}
			if time.Now().After(deadline) {
				t.Fatalf("coordinator map %+v, want two entries, the second at %s", m, addr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	before := mapped(odd.Addr())
	odd.Stop()
	late := data(2, 1)
	after := mapped(late.Addr())
	if after[1].Addr = odd.Addr(); after[1] != before[1] {
		t.Fatalf("range 1 of the map was %+v and is %+v", before[1], after[1])
	}
	trainLayoutGroup(t, coord.Addr())
}

// TestServeRefusesWhatItWouldIgnore: a coordinator holds no weights, so a
// configured guard or checkpoint directory is a validation error naming the
// reason rather than a silently dropped request; and a checkpoint directory
// holding only a format earlier builds wrote (the incremental manifest, or the
// single file before it) fails Serve instead of starting from scratch over it.
func TestServeRefusesWhatItWouldIgnore(t *testing.T) {
	coord := dssp.ServerConfig{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Sync:    dssp.Sync{Paradigm: dssp.ASP},
		Dataset: dssp.DatasetConfig{Examples: 32, Classes: 2, ImageSize: 8, Seed: 1},
		Seed:    1,
		Cluster: dssp.ClusterOptions{Role: dssp.RoleCoordinator, Servers: 2},
	}
	withCheckpoint, withGuard := coord, coord
	withCheckpoint.Checkpoint.Dir = t.TempDir()
	withGuard.Guard.Enabled = true
	for want, cfg := range map[string]dssp.ServerConfig{"checkpoints on the data servers": withCheckpoint, "guard": withGuard} {
		if s, err := dssp.Serve(cfg); err == nil {
			s.Stop()
			t.Errorf("coordinator accepted a configuration it would ignore (%s)", want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("coordinator refusal %q does not mention %q", err, want)
		}
	}

	for _, name := range []string{"checkpoint.ckpt", "manifest.ckpt", "store.ckpt"} {
		legacy := coord
		legacy.Cluster = dssp.ClusterOptions{}
		legacy.Checkpoint.Dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(legacy.Checkpoint.Dir, name), []byte("gob"), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := dssp.Serve(legacy); err == nil {
			s.Stop()
			t.Fatalf("server started from scratch over %s", name)
		} else if !strings.Contains(err.Error(), name+", a checkpoint format this build no longer reads") {
			t.Fatalf("%s refusal reads %q", name, err)
		}
	}
}
