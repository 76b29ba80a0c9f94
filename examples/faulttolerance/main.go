// Fault tolerance end to end over real TCP: a DSSP cluster survives a
// worker crash, the worker's restart and rejoin, and a parameter-server
// kill + checkpoint-restore — and still converges.
//
// The timeline:
//
//  1. An elastic parameter server starts with checkpointing enabled.
//
//  2. Three workers train; worker 2 is killed a third of the way in (the
//     connection drops with no goodbye, exactly like a SIGKILL).
//     Without the membership layer, DSSP would wait on its frozen clock
//     forever; instead the dead session is deregistered, the policy drops
//     the worker from staleness accounting, and workers 0 and 1 keep going.
//
//  3. Worker 2 is restarted and rejoins the same run mid-flight.
//
//  4. The server itself is killed and a new one starts from the latest
//     checkpoint — same address, restored weights/optimizer/version. The
//     workers' -reconnect loops redial, rejoin, and training resumes.
//
//  5. Everyone finishes; the final model is evaluated on held-out data.
//
//     go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"dssp"
)

const workers = 3

var dataset = dssp.DatasetConfig{
	Examples:  384,
	Classes:   3,
	ImageSize: 12,
	Noise:     0.4,
	Seed:      7,
}

func serverConfig(addr, ckptDir string) dssp.ServerConfig {
	return dssp.ServerConfig{
		Addr:         addr,
		Workers:      workers,
		Sync:         dssp.DefaultDSSP(),
		Model:        dssp.ModelSmallMLP,
		Dataset:      dataset,
		LearningRate: 0.1,
		Options: dssp.Options{
			Elastic: true,
			// A short lease so a hung worker is evicted quickly in the demo.
			HeartbeatTimeout: 2 * time.Second,
			Checkpoint:       dssp.Checkpoint{Dir: ckptDir, Every: 20},
		},
		Seed: 7,
	}
}

func workerConfig(addr string, id int) dssp.WorkerConfig {
	return dssp.WorkerConfig{
		ServerAddr: addr,
		WorkerID:   id,
		Workers:    workers,
		Model:      dssp.ModelSmallMLP,
		Dataset:    dataset,
		BatchSize:  16,
		Epochs:     10,
		Seed:       7,
		Delay:      25 * time.Millisecond,
		Reconnect:  30 * time.Second,
		Options:    dssp.Options{HeartbeatInterval: 250 * time.Millisecond},
	}
}

func main() {
	// Reserve a fixed port so the restarted server is reachable at the same
	// address the workers keep dialing.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ckptDir, err := os.MkdirTemp("", "dssp-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)

	server, err := dssp.Serve(serverConfig(addr, ckptDir))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elastic DSSP server on %s, checkpoints every 20 updates in %s\n", addr, ckptDir)

	var wg sync.WaitGroup
	reports := make([]*dssp.WorkerReport, workers)

	// Workers 0 and 1 run the whole course.
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r, err := dssp.RunWorker(workerConfig(addr, id))
			if err != nil {
				log.Fatalf("worker %d: %v", id, err)
			}
			reports[id] = r
		}(id)
	}

	// Worker 2 is killed a third of the way through its run...
	crash := workerConfig(addr, 2)
	crash.FailAfter = 30
	r, err := dssp.RunWorker(crash)
	if err != nil {
		log.Fatalf("worker 2 (doomed): %v", err)
	}
	fmt.Printf("worker 2 KILLED after %d iterations — survivors keep training (no deadlock)\n", r.Iterations)

	// ...and restarted half a second later, rejoining the same run.
	time.Sleep(500 * time.Millisecond)
	fmt.Printf("worker 2 restarting (server saw %d departures so far)\n", server.Departures())
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := dssp.RunWorker(workerConfig(addr, 2))
		if err != nil {
			log.Fatalf("worker 2 (restarted): %v", err)
		}
		reports[2] = r
	}()

	// Meanwhile, kill the server mid-run and bring up a fresh one from the
	// checkpoint. The workers' reconnect loops carry them across.
	time.Sleep(300 * time.Millisecond)
	fmt.Printf("server KILLED at version %d; restarting from checkpoint...\n", server.Version())
	server.Stop()
	server, err = dssp.Serve(serverConfig(addr, ckptDir))
	if err != nil {
		log.Fatalf("server restart: %v", err)
	}
	if !server.Restored() {
		log.Fatal("restarted server found no checkpoint")
	}
	fmt.Printf("server restored at version %d — training resumes\n", server.Version())

	wg.Wait()
	select {
	case <-server.Done():
	case <-time.After(10 * time.Second):
		// All workers have returned, so nothing is training; don't let the
		// demo hang if the completion edge was missed.
	}

	fmt.Println()
	for id, r := range reports {
		fmt.Printf("worker %d: %d iterations, final loss %.4f, %d reconnects\n",
			id, r.Iterations, r.FinalLoss, r.Reconnects)
	}
	fmt.Printf("server: %d updates applied, %d departures, %d rejoins\n",
		server.Updates(), server.Departures(), server.Rejoins())
	acc, err := server.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final accuracy on held-out data: %.3f — DSSP converged through a worker kill, "+
		"a rejoin, and a server restart\n", acc)
	server.Stop()
}
