// TCP cluster: run a real parameter server and two worker processes' worth of
// training over loopback TCP inside one program. The same Serve / RunWorker
// API is what cmd/psserver and cmd/psworker use across machines.
//
//	go run ./examples/tcp_cluster
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"dssp"
)

func main() {
	const workers = 2
	dataset := dssp.DatasetConfig{
		Examples:  256,
		Classes:   3,
		ImageSize: 12,
		Noise:     0.5,
		Seed:      11,
	}

	server, err := dssp.Serve(dssp.ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      workers,
		Sync:         dssp.DefaultDSSP(),
		Model:        dssp.ModelSmallMLP,
		Dataset:      dataset,
		LearningRate: 0.1,
		// Four store shards, each applying pushes on its own; a pull still
		// gets the whole model in one frame (0 would pick one shard per CPU).
		Options: dssp.Options{Shards: 4},
		Seed:    11,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Stop()
	fmt.Printf("parameter server listening on %s\n", server.Addr())

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker 1 is slowed down to emulate a weaker GPU; DSSP lets
			// worker 0 keep running instead of stalling at a fixed threshold.
			var delay time.Duration
			if w == 1 {
				delay = 3 * time.Millisecond
			}
			report, err := dssp.RunWorker(dssp.WorkerConfig{
				ServerAddr: server.Addr(),
				WorkerID:   w,
				Workers:    workers,
				Model:      dssp.ModelSmallMLP,
				Dataset:    dataset,
				BatchSize:  16,
				Epochs:     5,
				Seed:       11,
				Delay:      delay,
			})
			if err != nil {
				log.Printf("worker %d failed: %v", w, err)
				return
			}
			fmt.Printf("worker %d: %d iterations in %s (final loss %.4f)\n",
				w, report.Iterations, report.Duration.Round(time.Millisecond), report.FinalLoss)
		}(w)
	}
	wg.Wait()

	select {
	case <-server.Done():
		fmt.Printf("server applied %d updates; training complete\n", server.Updates())
	case <-time.After(30 * time.Second):
		log.Fatal("timed out waiting for the server to observe completion")
	}
}
