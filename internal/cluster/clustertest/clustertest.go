// Package clustertest stands up DSSP server groups over real TCP for
// end-to-end tests: a coordinator, N data servers, optional standbys, and
// worker runners — with free-port allocation, lifecycle logging through the
// test's logger, and deterministic teardown via t.Cleanup (workers first,
// then standbys, data servers and the coordinator, in that order).
//
// With Config.Servers == 0 the same harness starts a classic standalone
// server, so a test can run the identical workload against both topologies
// and compare the results.
package clustertest

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dssp"
)

// Config describes the cluster (or standalone server) under test. Zero
// values pick small-but-meaningful defaults suitable for sub-second tests.
type Config struct {
	// Servers is the number of data servers; 0 starts a classic standalone
	// server instead of a group.
	Servers int
	// Backups starts one standby for each data server in [0, Backups): a
	// second data server for the same index, started once the first owns
	// the range, which the coordinator therefore makes its standby — it
	// replicates the owner and takes the range over when the owner dies.
	Backups int
	// Workers is the number of training workers the servers expect.
	Workers int
	// Sync selects the paradigm; the zero value means DSSP(1, 4).
	Sync dssp.Sync
	// Model, Dataset, Seed, BatchSize and Epochs describe the workload; the
	// zero values train the small MLP on an easy synthetic dataset.
	Model     dssp.Model
	Dataset   dssp.DatasetConfig
	Seed      int64
	BatchSize int
	Epochs    int
	// LearningRate and Momentum configure the data servers' SGD.
	LearningRate float64
	Momentum     float64
	// Options is the shared serving surface (compression, aggregation,
	// sharding) applied to every server in the group; its Shards is the
	// coordinator's, the group-wide count (0 = the layout default of two per
	// data server), which the data servers are told.
	Options dssp.Options
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Sync == (dssp.Sync{}) {
		c.Sync = dssp.Sync{Paradigm: dssp.DSSP, Staleness: 1, Range: 4}
	}
	if c.Model == "" {
		c.Model = dssp.ModelSmallMLP
	}
	if c.Dataset == (dssp.DatasetConfig{}) {
		c.Dataset = dssp.DatasetConfig{Examples: 240, Classes: 3, ImageSize: 12, Noise: 0.3, Seed: 7}
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.BatchSize == 0 {
		c.BatchSize = 12
	}
	if c.Epochs == 0 {
		c.Epochs = 2
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	return c
}

// Cluster is a running server group (or standalone server) plus the
// bookkeeping to kill members and connect workers to it.
type Cluster struct {
	t   *testing.T
	cfg Config

	// Coordinator is the group's coordinator, or the standalone server when
	// Config.Servers was 0.
	Coordinator *dssp.Server
	// Data are the data servers, index-aligned with the group layout.
	Data []*dssp.Server
	// Backups are the standbys, in start order; Backups[i] first stands by
	// for Data[i] (StartStandby appends more).
	Backups []*dssp.Server

	coordAddr string
	dataAddrs []string

	mu     sync.Mutex
	killed map[*dssp.Server]bool
}

// FreePort reserves a TCP port on the loopback interface for a server the
// test will start (and possibly restart at the same address).
func FreePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// Start brings the whole topology up — coordinator first, then data servers
// (which announce themselves to it), then standbys — and registers teardown
// with t.Cleanup. It fails the test on any startup error.
func Start(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg = cfg.withDefaults()
	c := &Cluster{t: t, cfg: cfg, killed: make(map[*dssp.Server]bool)}
	t.Cleanup(c.stopAll)

	if cfg.Servers == 0 {
		srv, err := dssp.Serve(c.serverConfig(dssp.ClusterOptions{}))
		if err != nil {
			t.Fatalf("clustertest: standalone server: %v", err)
		}
		c.Coordinator = srv
		c.coordAddr = srv.Addr()
		t.Logf("clustertest: standalone server on %s", srv.Addr())
		return c
	}

	coord, err := dssp.Serve(c.serverConfig(dssp.ClusterOptions{
		Role:    dssp.RoleCoordinator,
		Servers: cfg.Servers,
	}))
	if err != nil {
		t.Fatalf("clustertest: coordinator: %v", err)
	}
	c.Coordinator = coord
	c.coordAddr = coord.Addr()
	t.Logf("clustertest: coordinator on %s (%d data servers)", coord.Addr(), cfg.Servers)

	for i := 0; i < cfg.Servers; i++ {
		srv, err := dssp.Serve(c.dataConfig(i))
		if err != nil {
			t.Fatalf("clustertest: data server %d: %v", i, err)
		}
		c.Data = append(c.Data, srv)
		c.dataAddrs = append(c.dataAddrs, srv.Addr())
		t.Logf("clustertest: data server %d on %s", i, srv.Addr())
	}
	for i := 0; i < cfg.Backups && i < cfg.Servers; i++ {
		c.StartStandby(i)
	}
	return c
}

// StartStandby starts one more data server for index i — whose range has its
// owner, Data[i] or whoever took its place, so the new member stands by for
// it — and appends it to Backups. It fails the test on a start-up error.
func (c *Cluster) StartStandby(i int) *dssp.Server {
	c.t.Helper()
	srv, err := dssp.Serve(c.dataConfig(i))
	if err != nil {
		c.t.Fatalf("clustertest: standby for index %d: %v", i, err)
	}
	c.Backups = append(c.Backups, srv)
	c.t.Logf("clustertest: standby for index %d on %s", i, srv.Addr())
	return srv
}

// dataConfig is the configuration of a data server for range i. A data
// server is told its range by the coordinator, so it carries no shard count.
func (c *Cluster) dataConfig(i int) dssp.ServerConfig {
	cfg := c.serverConfig(dssp.ClusterOptions{Role: dssp.RoleData, Coordinator: c.coordAddr, Index: i})
	cfg.Shards = 0
	return cfg
}

func (c *Cluster) serverConfig(cluster dssp.ClusterOptions) dssp.ServerConfig {
	return dssp.ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      c.cfg.Workers,
		Sync:         c.cfg.Sync,
		Model:        c.cfg.Model,
		Dataset:      c.cfg.Dataset,
		LearningRate: c.cfg.LearningRate,
		Momentum:     c.cfg.Momentum,
		Options:      c.cfg.Options,
		Seed:         c.cfg.Seed,
		Cluster:      cluster,
	}
}

// CoordinatorAddr is what workers dial — the coordinator, or the standalone
// server when the harness was started with Servers == 0.
func (c *Cluster) CoordinatorAddr() string { return c.coordAddr }

// IsGroup reports whether this harness runs a server group (vs standalone).
func (c *Cluster) IsGroup() bool { return c.cfg.Servers > 0 }

// WorkerConfig builds the worker configuration matching the cluster's
// workload, pointed at the coordinator, or at the standalone server.
func (c *Cluster) WorkerConfig(id int) dssp.WorkerConfig {
	return dssp.WorkerConfig{
		ServerAddr: c.coordAddr,
		WorkerID:   id,
		Workers:    c.cfg.Workers,
		Model:      c.cfg.Model,
		Dataset:    c.cfg.Dataset,
		BatchSize:  c.cfg.BatchSize,
		Epochs:     c.cfg.Epochs,
		Seed:       c.cfg.Seed,
		Options: dssp.Options{
			Compression: c.cfg.Options.Compression,
		},
	}
}

// RunWorkers runs every worker to completion concurrently, applying mutate
// (when non-nil) to each worker's configuration first. It returns the
// reports and errors index-aligned with worker IDs.
func (c *Cluster) RunWorkers(mutate func(id int, cfg *dssp.WorkerConfig)) ([]*dssp.WorkerReport, []error) {
	reports := make([]*dssp.WorkerReport, c.cfg.Workers)
	errs := make([]error, c.cfg.Workers)
	var wg sync.WaitGroup
	for id := 0; id < c.cfg.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wcfg := c.WorkerConfig(id)
			if mutate != nil {
				mutate(id, &wcfg)
			}
			reports[id], errs[id] = dssp.RunWorker(wcfg)
		}(id)
	}
	wg.Wait()
	return reports, errs
}

// KillData stops data server i abruptly, as a crash: its listener closes and
// its sessions drop. Its announce connection drops with them, and the
// coordinator gives its range to the range's longest-standing standby, or
// keeps the stale map entry until a member announces for it.
func (c *Cluster) KillData(i int) {
	c.t.Helper()
	c.t.Logf("clustertest: killing data server %d (%s)", i, c.dataAddrs[i])
	c.kill(c.Data[i])
}

// KillCoordinator stops the coordinator. By design the group cannot outlive
// it: data servers fail fast (watch their Failed channels) and in-flight
// worker runs error out.
func (c *Cluster) KillCoordinator() {
	c.t.Helper()
	c.t.Logf("clustertest: killing coordinator (%s)", c.coordAddr)
	c.kill(c.Coordinator)
}

func (c *Cluster) kill(s *dssp.Server) {
	c.mu.Lock()
	already := c.killed[s]
	c.killed[s] = true
	c.mu.Unlock()
	if !already {
		s.Stop()
	}
}

// WaitPromoted blocks until Backups[i] reports its promotion, or fails the
// test at the timeout.
func (c *Cluster) WaitPromoted(i int, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for !c.Backups[i].Status().Promoted {
		if time.Now().After(deadline) {
			c.t.Fatalf("clustertest: standby %d not promoted within %v", i, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Logf("clustertest: standby %d promoted", i)
}

// WaitDone blocks until the coordinator reports the run complete, or fails
// the test at the timeout.
func (c *Cluster) WaitDone(timeout time.Duration) {
	c.t.Helper()
	select {
	case <-c.Coordinator.Done():
	case <-time.After(timeout):
		c.t.Fatalf("clustertest: run not complete within %v", timeout)
	}
}

// Evaluate measures the global model's accuracy through the coordinator
// (which assembles the weights from the data servers) or the standalone
// server directly.
func (c *Cluster) Evaluate() float64 {
	c.t.Helper()
	acc, err := c.Coordinator.Evaluate()
	if err != nil {
		c.t.Fatalf("clustertest: evaluate: %v", err)
	}
	return acc
}

// stopAll tears the topology down in reverse dependency order, skipping
// members the test already killed.
func (c *Cluster) stopAll() {
	for i := len(c.Backups) - 1; i >= 0; i-- {
		c.kill(c.Backups[i])
	}
	for i := len(c.Data) - 1; i >= 0; i-- {
		c.kill(c.Data[i])
	}
	if c.Coordinator != nil {
		c.kill(c.Coordinator)
	}
}

// Describe returns a short topology label for subtest names and logs.
func (c *Cluster) Describe() string {
	if !c.IsGroup() {
		return "standalone"
	}
	return fmt.Sprintf("%d-server", c.cfg.Servers)
}
