package dssp_test

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp"
	"dssp/internal/cluster/clustertest"
	"dssp/internal/transport"
)

// elasticServerConfig is a tiny DSSP cluster over real TCP.
func elasticServerConfig(addr, ckptDir string, workers int) dssp.ServerConfig {
	return dssp.ServerConfig{
		Addr:         addr,
		Workers:      workers,
		Sync:         dssp.Sync{Paradigm: dssp.DSSP, Staleness: 2, Range: 4},
		Model:        dssp.ModelSmallMLP,
		Dataset:      dssp.DatasetConfig{Examples: 240, Classes: 3, ImageSize: 12, Noise: 0.3, Seed: 3},
		LearningRate: 0.1,
		Options: dssp.Options{
			Lease:      2 * time.Second,
			Checkpoint: dssp.Checkpoint{Dir: ckptDir, Every: 10},
		},
		Seed: 3,
	}
}

func elasticWorkerConfig(addr string, id, workers int) dssp.WorkerConfig {
	return dssp.WorkerConfig{
		ServerAddr: addr,
		WorkerID:   id,
		Workers:    workers,
		Model:      dssp.ModelSmallMLP,
		Dataset:    dssp.DatasetConfig{Examples: 240, Classes: 3, ImageSize: 12, Noise: 0.3, Seed: 3},
		BatchSize:  12,
		Epochs:     3,
		Seed:       3,
		Reconnect:  30 * time.Second,
	}
}

// TestTCPWorkerCrashRejoinAndServerRestart is the end-to-end elasticity
// test over real TCP: one worker crashes via fault injection and is
// restarted (rejoining mid-run), and the server itself is killed and
// brought back from its checkpoint while the surviving workers ride through
// on their reconnect loops.
//
// It runs with the workers' loopback dials held on TCP, the cross-host
// carrier, and again with them upgrading to the same-host lane, where the
// restarted server must bind the abstract name its predecessor just left.
func TestTCPWorkerCrashRejoinAndServerRestart(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		t.Cleanup(transport.SetLaneEnabled(false))
		testWorkerCrashRejoinAndServerRestart(t)
	})
	t.Run("lane", func(t *testing.T) {
		t.Cleanup(transport.SetLaneEnabled(true))
		testWorkerCrashRejoinAndServerRestart(t)
	})
}

func testWorkerCrashRejoinAndServerRestart(t *testing.T) {
	const workers = 2
	addr := clustertest.FreePort(t)
	ckptDir := t.TempDir()

	server, err := dssp.Serve(elasticServerConfig(addr, ckptDir, workers))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Stop()

	// Worker 0 runs the whole course with a small per-iteration delay so the
	// run is still in flight when we bounce the server.
	var wg sync.WaitGroup
	var w0report *dssp.WorkerReport
	var w0err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := elasticWorkerConfig(addr, 0, workers)
		cfg.Delay = 25 * time.Millisecond
		w0report, w0err = dssp.RunWorker(cfg)
	}()

	// Worker 1 crashes a few iterations in...
	crashCfg := elasticWorkerConfig(addr, 1, workers)
	crashCfg.FailAfter = 5
	report, err := dssp.RunWorker(crashCfg)
	if err != nil {
		t.Fatalf("crashing worker: %v", err)
	}
	if !report.Crashed {
		t.Fatal("FailAfter did not crash the worker")
	}

	// ...and is restarted, rejoining the same run.
	var w1report *dssp.WorkerReport
	var w1err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := elasticWorkerConfig(addr, 1, workers)
		cfg.Delay = 20 * time.Millisecond
		w1report, w1err = dssp.RunWorker(cfg)
	}()

	// Give the run a moment, then kill the server and restore it from its
	// checkpoint on the same address. The workers' reconnect loops must
	// carry them across the outage.
	time.Sleep(300 * time.Millisecond)
	server.Stop()
	// Read after Stop: it drains pushes still in the apply pipeline into the
	// final checkpoint, so the version just before it can be one short.
	versionBefore := server.Status().Version
	server, err = dssp.Serve(elasticServerConfig(addr, ckptDir, workers))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer server.Stop()
	st := server.Status()
	if !st.Restored {
		t.Fatal("restarted server did not restore the checkpoint")
	}
	if st.Version == 0 || st.Version > versionBefore {
		t.Fatalf("restored version %d, expected in (0, %d]", st.Version, versionBefore)
	}

	wg.Wait()
	if w0err != nil {
		t.Fatalf("worker 0: %v", w0err)
	}
	if w1err != nil {
		t.Fatalf("worker 1 (rejoined): %v", w1err)
	}
	if w0report.Reconnects == 0 {
		t.Error("worker 0 never reconnected across the server restart")
	}
	if w0report.Iterations == 0 || w1report.Iterations == 0 {
		t.Errorf("iterations: w0=%d w1=%d", w0report.Iterations, w1report.Iterations)
	}

	select {
	case <-server.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("server never completed after workers finished")
	}
	if acc, err := server.Evaluate(); err != nil {
		t.Errorf("evaluate: %v", err)
	} else if acc < 0.5 {
		t.Errorf("final accuracy %.3f after crash + restart never converged", acc)
	}
}

// TestReconnectWorkerFailsFastOnWireMismatch pins that a Reconnect worker
// treats a peer that is not speaking the protocol as permanent: against a
// listener that answers its registration with garbage, the error surfaces in
// well under the reconnect budget instead of being redialed for all of it.
func TestReconnectWorkerFailsFastOnWireMismatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var dials atomic.Int32
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			_, _ = c.Read(make([]byte, 256))
			_, _ = c.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
			c.Close()
		}
	}()

	start := time.Now()
	_, err = dssp.RunWorker(dssp.WorkerConfig{
		ServerAddr: l.Addr().String(),
		WorkerID:   0,
		Workers:    1,
		Dataset:    dssp.DatasetConfig{Examples: 32, Classes: 2, ImageSize: 8, Seed: 1},
		BatchSize:  8,
		Epochs:     1,
		Seed:       1,
		Reconnect:  30 * time.Second,
	})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "not a DSSP frame") {
		t.Fatalf("worker against a non-DSSP listener returned %v, want the wire-mismatch error", err)
	}
	if elapsed > 5*time.Second || dials.Load() != 1 {
		t.Fatalf("wire mismatch took %v and %d dials to surface under Reconnect; must fail fast, not retry", elapsed, dials.Load())
	}
}

// TestServeFailureLeaksNoServer: a Serve that fails on its listener — the
// address is taken — or on its admin endpoint leaves nothing running behind
// the error: no releaser, no lease monitor, no accept loop. Five of each on an
// elastic server end with the goroutine count back at its baseline.
func TestServeFailureLeaksNoServer(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	settled := func(limit int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	base := runtime.NumGoroutine()
	for _, c := range []struct{ addr, metrics string }{
		{taken.Addr().String(), ""},
		{"127.0.0.1:0", "256.0.0.1:1"},
	} {
		cfg := elasticServerConfig(c.addr, "", 2)
		cfg.MetricsAddr = c.metrics
		for i := 0; i < 5; i++ {
			if s, err := dssp.Serve(cfg); err == nil {
				s.Stop()
				t.Fatalf("Serve on %s with admin %q succeeded", c.addr, c.metrics)
			}
		}
		if n := settled(base); n > base {
			t.Fatalf("five failed Serves (addr %s, admin %q) left %d goroutines running, baseline %d", c.addr, c.metrics, n, base)
		}
	}
}
