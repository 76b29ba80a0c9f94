package dssp_test

import (
	"sync"
	"testing"
	"time"

	"dssp"
	"dssp/internal/cluster/clustertest"
)

// treeServerConfig is the root of a two-relay aggregation tree over real TCP.
func treeServerConfig(addr string, sync dssp.Sync) dssp.ServerConfig {
	return dssp.ServerConfig{
		Addr:         addr,
		Workers:      4,
		Sync:         sync,
		Model:        dssp.ModelSmallMLP,
		Dataset:      dssp.DatasetConfig{Examples: 240, Classes: 3, ImageSize: 12, Noise: 0.3, Seed: 5},
		LearningRate: 0.1,
		Options: dssp.Options{
			Elastic:          true,
			HeartbeatTimeout: 2 * time.Second,
		},
		Seed: 5,
	}
}

func treeWorkerConfig(rootAddr string, id int) dssp.WorkerConfig {
	return dssp.WorkerConfig{
		ServerAddr: rootAddr,
		Tree:       true,
		WorkerID:   id,
		Workers:    4,
		Model:      dssp.ModelSmallMLP,
		Dataset:    dssp.DatasetConfig{Examples: 240, Classes: 3, ImageSize: 12, Noise: 0.3, Seed: 5},
		BatchSize:  12,
		Epochs:     4,
		Seed:       5,
		Delay:      20 * time.Millisecond,
		Reconnect:  30 * time.Second,
		Options:    dssp.Options{HeartbeatInterval: 200 * time.Millisecond},
	}
}

// TestTCPRelayDeathReparentsSubtree is the churn test for the aggregation
// tier, run under each paradigm over real TCP: four workers join through two
// fanout-2 relays, the relay covering workers 2 and 3 is killed mid-run, and
// the orphans must re-fetch the layout and re-parent onto the survivor (which
// inherits their range) without deadlocking the barrier. The root sees the
// subtree leave and rejoin; every worker still finishes its full course.
func TestTCPRelayDeathReparentsSubtree(t *testing.T) {
	paradigms := []dssp.Sync{
		{Paradigm: dssp.BSP},
		{Paradigm: dssp.SSP, Staleness: 2},
		{Paradigm: dssp.DSSP, Staleness: 2, Range: 4},
	}
	for _, sync := range paradigms {
		sync := sync
		t.Run(sync.Paradigm.String(), func(t *testing.T) {
			runTreeChurn(t, sync)
		})
	}
}

func runTreeChurn(t *testing.T, syncCfg dssp.Sync) {
	rootAddr := clustertest.FreePort(t)
	server, err := dssp.Serve(treeServerConfig(rootAddr, syncCfg))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Stop()

	// Relays register in order, so the first covers workers [0,2) and the
	// second [2,4). Heartbeats keep the trunks alive through barrier stalls
	// under the root's elastic lease.
	relayCfg := func() dssp.RelayConfig {
		return dssp.RelayConfig{
			Addr:             "127.0.0.1:0",
			Parent:           rootAddr,
			Fanout:           2,
			HeartbeatTimeout: 2 * time.Second,
		}
	}
	relay0, err := dssp.ServeRelay(relayCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer relay0.Stop()
	relay1, err := dssp.ServeRelay(relayCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer relay1.Stop()

	var wg sync.WaitGroup
	reports := make([]*dssp.WorkerReport, 4)
	errs := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reports[w], errs[w] = dssp.RunWorker(treeWorkerConfig(rootAddr, w))
		}(w)
	}

	// Kill the relay fronting workers 2 and 3 while the run is in flight.
	time.Sleep(150 * time.Millisecond)
	relay1.Stop()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workers deadlocked after relay death")
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// The orphaned subtree must have ridden its reconnect loop onto the
	// survivor rather than completing before the kill landed.
	if reports[2].Reconnects == 0 && reports[3].Reconnects == 0 {
		t.Error("neither orphaned worker reconnected — the relay kill missed the run")
	}
	if d := server.Departures(); d < 2 {
		t.Errorf("root recorded %d departures, want >= 2 (the dead relay's subtree)", d)
	}
	if r := server.Rejoins(); r < 1 {
		t.Errorf("root recorded %d rejoins, want >= 1 (orphans re-parenting)", r)
	}

	select {
	case <-server.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("server never completed after all workers finished")
	}

	// Every logical push was either applied or dropped — nothing vanished
	// inside the tree, even across the re-parent.
	totalIters := 0
	for w, rep := range reports {
		if rep.Iterations == 0 {
			t.Errorf("worker %d did no iterations", w)
		}
		totalIters += rep.Iterations
	}
	if got := server.Updates() + server.Dropped(); got < totalIters {
		t.Errorf("updates %d + dropped %d < %d worker iterations: pushes lost in the tree",
			server.Updates(), server.Dropped(), totalIters)
	}
	if acc, err := server.Evaluate(); err != nil {
		t.Errorf("evaluate: %v", err)
	} else if acc < 0.5 {
		t.Errorf("final accuracy %.3f after relay churn never converged", acc)
	} else {
		t.Logf("%s: accuracy %.3f, updates %d, dropped %d, departures %d, rejoins %d",
			syncCfg.Paradigm, acc, server.Updates(), server.Dropped(), server.Departures(), server.Rejoins())
	}
}
