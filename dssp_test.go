package dssp

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSyncDescribeAndValidate(t *testing.T) {
	cases := []struct {
		sync    Sync
		workers int
		wantErr bool
	}{
		{DefaultDSSP(), 4, false},
		{Sync{Paradigm: BSP}, 4, false},
		{Sync{Paradigm: ASP}, 2, false},
		{Sync{Paradigm: SSP, Staleness: 3}, 4, false},
		{Sync{Paradigm: SSP, Staleness: -1}, 4, true},
		{Sync{Paradigm: DSSP, Staleness: 3, Range: -2}, 4, true},
	}
	for _, tc := range cases {
		err := tc.sync.Validate(tc.workers)
		if (err != nil) != tc.wantErr {
			t.Errorf("Validate(%+v, %d) error = %v, wantErr %v", tc.sync, tc.workers, err, tc.wantErr)
		}
		if tc.sync.Describe() == "" {
			t.Errorf("Describe(%+v) empty", tc.sync)
		}
	}
	if DefaultDSSP().Describe() != "DSSP sL=3 r=12" {
		t.Errorf("DefaultDSSP description %q", DefaultDSSP().Describe())
	}
}

func TestTrainQuickstartConverges(t *testing.T) {
	res, err := Train(TrainConfig{
		Model:     ModelSmallMLP,
		Workers:   3,
		BatchSize: 16,
		Epochs:    6,
		Sync:      DefaultDSSP(),
		Dataset:   DatasetConfig{Examples: 300, Classes: 3, ImageSize: 12, Noise: 0.4, Seed: 1},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("final accuracy %v, want >= 0.7 on the easy synthetic task", res.FinalAccuracy)
	}
	if res.Updates == 0 || res.Duration <= 0 {
		t.Fatal("missing run statistics")
	}
	if res.Paradigm != "DSSP sL=3 r=12" {
		t.Fatalf("unexpected paradigm label %q", res.Paradigm)
	}
	if _, ok := res.Accuracy.TimeToReach(0.5); !ok {
		t.Fatal("run should have crossed 0.5 accuracy")
	}
}

func TestTrainDefaultsAreApplied(t *testing.T) {
	res, err := Train(TrainConfig{Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates == 0 {
		t.Fatal("defaulted run applied no updates")
	}
}

func TestTrainRejectsInvalidConfigs(t *testing.T) {
	if _, err := Train(TrainConfig{Model: "no-such-model"}); err == nil {
		t.Error("expected error for unknown model")
	}
	if _, err := Train(TrainConfig{Sync: Sync{Paradigm: SSP, Staleness: -3}}); err == nil {
		t.Error("expected error for invalid staleness")
	}
}

func TestTrainParadigmsProduceDifferentWaitProfiles(t *testing.T) {
	base := TrainConfig{
		Model:        ModelSmallMLP,
		Workers:      3,
		BatchSize:    16,
		Epochs:       3,
		Dataset:      DatasetConfig{Examples: 192, Classes: 3, ImageSize: 10, Noise: 0.4, Seed: 3},
		WorkerDelays: []time.Duration{0, 0, 8 * time.Millisecond},
		Seed:         4,
	}
	bspCfg := base
	bspCfg.Sync = Sync{Paradigm: BSP}
	aspCfg := base
	aspCfg.Sync = Sync{Paradigm: ASP}

	bsp, err := Train(bspCfg)
	if err != nil {
		t.Fatal(err)
	}
	asp, err := Train(aspCfg)
	if err != nil {
		t.Fatal(err)
	}
	bspWait := bsp.Waits[0] + bsp.Waits[1]
	aspWait := asp.Waits[0] + asp.Waits[1]
	if bspWait <= aspWait {
		t.Fatalf("BSP fast-worker wait %v should exceed ASP %v with a slow straggler", bspWait, aspWait)
	}
}

func TestServeAndRunWorkerOverTCP(t *testing.T) {
	dataset := DatasetConfig{Examples: 96, Classes: 2, ImageSize: 8, Noise: 0.4, Seed: 9}
	const workers = 2
	server, err := Serve(ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      workers,
		Sync:         DefaultDSSP(),
		Model:        ModelSmallMLP,
		Dataset:      dataset,
		LearningRate: 0.1,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Stop()

	reports := make(chan *WorkerReport, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rep, err := RunWorker(WorkerConfig{
				ServerAddr: server.Addr(),
				WorkerID:   w,
				Workers:    workers,
				Model:      ModelSmallMLP,
				Dataset:    dataset,
				BatchSize:  16,
				Epochs:     3,
				Seed:       7,
			})
			if err != nil {
				errs <- err
				return
			}
			reports <- rep
		}(w)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case rep := <-reports:
			if rep.Iterations == 0 {
				t.Fatal("worker performed no iterations")
			}
		case <-time.After(60 * time.Second):
			t.Fatal("worker timed out")
		}
	}
	select {
	case <-server.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never observed completion")
	}
	if server.Updates() == 0 {
		t.Fatal("server applied no updates")
	}
}

func TestServeAndRunWorkerCompressedOverTCP(t *testing.T) {
	dataset := DatasetConfig{Examples: 96, Classes: 2, ImageSize: 8, Noise: 0.4, Seed: 9}
	const workers = 2
	server, err := Serve(ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      workers,
		Sync:         DefaultDSSP(),
		Model:        ModelSmallMLP,
		Dataset:      dataset,
		LearningRate: 0.1,
		Options:      Options{Compression: Compression{Codec: CompressTopK, TopK: 0.25}},
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Stop()

	// A worker with a conflicting explicit codec must be rejected cleanly.
	if _, err := RunWorker(WorkerConfig{
		ServerAddr: server.Addr(),
		WorkerID:   0,
		Workers:    workers,
		Model:      ModelSmallMLP,
		Dataset:    dataset,
		BatchSize:  16,
		Epochs:     1,
		Seed:       7,
		Options:    Options{Compression: Compression{Codec: CompressInt8}},
	}); err == nil {
		t.Fatal("int8 worker joined a topk server")
	}

	// One worker adopts the server's codec (default auto), one matches it
	// explicitly; both must train and the codec must show in the report.
	reports := make(chan *WorkerReport, workers)
	errs := make(chan error, workers)
	configs := []Compression{{}, {Codec: CompressTopK, TopK: 0.25}}
	for w := 0; w < workers; w++ {
		go func(w int) {
			rep, err := RunWorker(WorkerConfig{
				ServerAddr: server.Addr(),
				WorkerID:   w,
				Workers:    workers,
				Model:      ModelSmallMLP,
				Dataset:    dataset,
				BatchSize:  16,
				Epochs:     3,
				Seed:       7,
				// Shards 0 accepts the server's layout.
				Options: Options{Compression: configs[w]},
			})
			if err != nil {
				errs <- err
				return
			}
			reports <- rep
		}(w)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case rep := <-reports:
			if rep.Codec != CompressTopK {
				t.Fatalf("worker negotiated codec %q, want %q", rep.Codec, CompressTopK)
			}
			if rep.PushedBytes <= 0 || rep.PulledBytes <= 0 {
				t.Fatalf("traffic not accounted: pushed=%d pulled=%d", rep.PushedBytes, rep.PulledBytes)
			}
			if rep.PushedBytes >= rep.PulledBytes {
				t.Fatalf("topk pushes (%d B) should be far below dense pulls (%d B)", rep.PushedBytes, rep.PulledBytes)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("worker timed out")
		}
	}
	select {
	case <-server.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never observed completion")
	}
	if server.Updates() == 0 {
		t.Fatal("server applied no updates")
	}
}

// TestTCPAndInProcessRunTheSameIterations runs one job in process (Train)
// and over TCP (Serve and RunWorker): on both, every worker runs Epochs
// passes over Train.Len()/Workers examples rounded down — all of Train when
// that share is empty — and the server applies the same number of updates.
// An uneven split and one that leaves a worker no examples are the cases the
// two paths used to disagree on.
func TestTCPAndInProcessRunTheSameIterations(t *testing.T) {
	const workers, batch = 4, 2
	for _, tc := range []struct {
		examples, wantIters int
	}{
		{10, 1}, // 10/4 = 2 examples: one batch each, not [2 2 1 1]
		{3, 2},  // 3/4 = 0: each worker batches all 3, worker 3 included
	} {
		t.Run(fmt.Sprintf("examples=%d", tc.examples), func(t *testing.T) {
			dataset := DatasetConfig{Examples: tc.examples, Classes: 2, ImageSize: 4, Noise: 0.4, Seed: 5}
			policy := Sync{Paradigm: ASP}
			local, err := Train(TrainConfig{Model: ModelSmallMLP, Dataset: dataset, Workers: workers,
				BatchSize: batch, Epochs: 1, Sync: policy, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			server, err := Serve(ServerConfig{Addr: "127.0.0.1:0", Workers: workers, Sync: policy,
				Model: ModelSmallMLP, Dataset: dataset, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer server.Stop()
			iters := make([]int, workers)
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rep, err := RunWorker(WorkerConfig{ServerAddr: server.Addr(), WorkerID: w, Workers: workers,
						Model: ModelSmallMLP, Dataset: dataset, BatchSize: batch, Epochs: 1, Seed: 5})
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					iters[w] = rep.Iterations
				}()
			}
			wg.Wait()
			select {
			case <-server.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("server never observed completion")
			}
			want := []int{tc.wantIters, tc.wantIters, tc.wantIters, tc.wantIters}
			if !reflect.DeepEqual(iters, want) {
				t.Errorf("TCP worker iterations %v, want %v", iters, want)
			}
			if local.Updates != workers*tc.wantIters || server.Updates() != local.Updates {
				t.Errorf("updates: in process %d, over TCP %d, want %d on both",
					local.Updates, server.Updates(), workers*tc.wantIters)
			}
		})
	}
}

// TestServeAndRunWorkerRefuseNoWorkers: a server must know how many workers
// to wait for and a worker which share of the data is its own, so neither
// entry point defaults a missing worker count.
func TestServeAndRunWorkerRefuseNoWorkers(t *testing.T) {
	for _, workers := range []int{0, -1} {
		if server, err := Serve(ServerConfig{Addr: "127.0.0.1:0", Workers: workers}); err == nil {
			server.Stop()
			t.Errorf("Serve with Workers %d started", workers)
		} else if !strings.Contains(err.Error(), "worker count") {
			t.Errorf("Serve with Workers %d: %v, want a worker-count error", workers, err)
		}
		if _, err := RunWorker(WorkerConfig{ServerAddr: "127.0.0.1:1", Workers: workers}); err == nil ||
			!strings.Contains(err.Error(), "worker count") {
			t.Errorf("RunWorker with Workers %d: %v, want a worker-count error", workers, err)
		}
	}
}
