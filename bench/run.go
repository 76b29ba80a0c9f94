package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dssp"
)

// repConfig describes one repetition: one workload run start to finish in a
// fresh process (or in-process, for the smoke test).
type repConfig struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Epochs   [workers]int `json:"epochs"`
	Traced   bool         `json:"traced"`
	// SpawnedUnixNano is when the parent started the child, so process
	// start-up counts towards setup_s; 0 means "now".
	SpawnedUnixNano int64 `json:"spawned_unix_nano"`
	// TraceOut is where a traced repetition writes its spans; "" skips it.
	TraceOut string `json:"trace_out"`
}

// repResult is what one repetition measured.
type repResult struct {
	Quota      [workers]int       `json:"quota"`
	Iterations [workers]int       `json:"iterations"`
	DurationS  [workers]float64   `json:"duration_s"`
	FinalLoss  [workers]float64   `json:"final_loss"`
	Accuracy   float64            `json:"accuracy"` // -1 when not evaluated
	Updates    int                `json:"updates"`
	Dropped    int                `json:"dropped"`
	Params     int                `json:"params"`
	FoldDepth  float64            `json:"fold_depth"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Runtime    map[string]float64 `json:"runtime"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	TailPct    float64            `json:"tail_pct,omitempty"`
	Failures   []string           `json:"failures"`
}

// attempted and failed are the contract's operation counts: a worker that
// returned an error fails its whole quota.
func (r *repResult) attempted() int { return r.Quota[0] + r.Quota[1] }
func (r *repResult) failed() int    { return r.attempted() - r.Iterations[0] - r.Iterations[1] }
func (r *repResult) completed() int { return r.Iterations[0] + r.Iterations[1] }

// topology is a running server side: the root workers are pointed at, every
// server whose registry carries push/pull/store series, and the relay.
type topology struct {
	root     *dssp.Server
	servers  []*dssp.Server
	relay    *dssp.RelayServer
	stopOnce sync.Once
}

// startTopology stands the workload's servers up on loopback ports picked by
// the kernel, so concurrent benchmark runs never collide.
func startTopology(w workload, seed int64) (*topology, error) {
	cfg := w.serverConfig(seed)
	t := &topology{}
	switch w.Topology {
	case topoGroup:
		const dataServers = 2
		cfg.Cluster = dssp.ClusterOptions{Role: dssp.RoleCoordinator, Servers: dataServers}
		root, err := dssp.Serve(cfg)
		if err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		t.root = root
		t.servers = append(t.servers, root)
		for i := 0; i < dataServers; i++ {
			cfg.Cluster = dssp.ClusterOptions{Role: dssp.RoleData, Coordinator: root.Addr(), Servers: dataServers, Index: i}
			srv, err := dssp.Serve(cfg)
			if err != nil {
				t.stop()
				return nil, fmt.Errorf("data server %d: %w", i, err)
			}
			t.servers = append(t.servers, srv)
		}
	default:
		root, err := dssp.Serve(cfg)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		t.root = root
		t.servers = append(t.servers, root)
		if w.Topology == topoTree {
			relay, err := dssp.ServeRelay(dssp.RelayConfig{Addr: "127.0.0.1:0", Parent: root.Addr(), Fanout: workers})
			if err != nil {
				t.stop()
				return nil, fmt.Errorf("relay: %w", err)
			}
			t.relay = relay
		}
	}
	return t, nil
}

// stop tears the topology down leaf to root.
func (t *topology) stop() {
	t.stopOnce.Do(func() {
		if t.relay != nil {
			t.relay.Stop()
		}
		for i := len(t.servers) - 1; i >= 0; i-- {
			t.servers[i].Stop()
		}
	})
}

// seriesMean is Σ name_sum ÷ Σ name_count over the topology's servers, for a
// histogram family (labels, if any, go in both).
func seriesMean(snaps []map[string]float64, family, labels string) float64 {
	var sum, count float64
	for _, s := range snaps {
		sum += s[family+"_sum"+labels]
		count += s[family+"_count"+labels]
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's high-water resident set in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// workerOutcome is one worker's report, whichever loop produced it.
type workerOutcome struct {
	report *dssp.WorkerReport
	err    error
}

// runRep runs one repetition and checks its outputs. An error means the
// repetition could not be measured at all; measured-but-wrong outputs come
// back in Failures.
func runRep(cfg repConfig) (*repResult, error) {
	started := time.Now()
	if cfg.SpawnedUnixNano != 0 {
		started = time.Unix(0, cfg.SpawnedUnixNano)
	}
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	topo, err := startTopology(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer topo.stop()

	var tr *tracer
	if cfg.Traced {
		tr = newTracer(w, cfg.Epochs)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()

	outcomes := make([]workerOutcome, workers)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wc := w.workerConfig(id, topo.root.Addr(), cfg.Seed, cfg.Epochs[id])
			if tr != nil {
				outcomes[id].report, outcomes[id].err = tr.runWorker(wc)
			} else {
				outcomes[id].report, outcomes[id].err = dssp.RunWorker(wc)
			}
		}(id)
	}
	wg.Wait()
	finished := time.Now()
	cpu := cpuSeconds() - cpu0
	peakRSS := peakRSSMB() // before the checks' own allocations (Evaluate regenerates the dataset)
	runtime.ReadMemStats(&after)

	res := &repResult{Accuracy: -1, Failures: []string{}}
	var pushed, pulled int64
	maxDuration := 0.0
	for id, o := range outcomes {
		res.Quota[id] = cfg.Epochs[id] * w.itersPerEpoch()
		if o.err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("worker %d: %v", id, o.err))
			continue
		}
		res.Iterations[id] = o.report.Iterations
		res.DurationS[id] = o.report.Duration.Seconds()
		res.FinalLoss[id] = o.report.FinalLoss
		pushed += o.report.PushedBytes
		pulled += o.report.PulledBytes
		maxDuration = math.Max(maxDuration, res.DurationS[id])
	}
	if res.completed() == 0 {
		return res, nil
	}

	// Every worker sent Done, so the root finishes on its own; waiting for it
	// makes the update count final before it is checked.
	select {
	case <-topo.root.Done():
	case <-time.After(10 * time.Second):
		res.Failures = append(res.Failures, "root server never completed after all workers finished")
	}
	res.Updates, res.Dropped = topo.root.Updates(), topo.root.Dropped()
	snaps := make([]map[string]float64, len(topo.servers))
	for i, s := range topo.servers {
		snaps[i] = s.Registry().Snapshot()
	}
	if topo.relay != nil {
		if st := topo.relay.Stats(); st.ForwardedPushes > 0 {
			res.FoldDepth = float64(st.ChildPushes) / float64(st.ForwardedPushes)
		}
	}
	if w.MinAccuracy > 0 {
		if res.Accuracy, err = topo.root.Evaluate(); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("evaluate: %v", err))
		}
	}

	iters := float64(res.completed())
	rate := 0.0
	for id := range outcomes {
		if res.DurationS[id] > 0 {
			rate += float64(res.Iterations[id]) / res.DurationS[id]
		}
	}
	res.EndToEnd = map[string]float64{
		"setup_s":             finished.Sub(started).Seconds() - maxDuration,
		"iters_per_s":         rate,
		"cpu_ms_per_iter":     cpu * 1000 / iters,
		"wire_bytes_per_iter": float64(pushed+pulled) / iters,
		"peak_rss_mb":         peakRSS,
		"mean_staleness":      seriesMean(snaps[:1], "dssp_push_staleness", ""),
	}
	res.Runtime = map[string]float64{
		"runtime.alloc_kb_per_iter": float64(after.TotalAlloc-before.TotalAlloc) / 1024 / iters,
		"runtime.mallocs_per_iter":  float64(after.Mallocs-before.Mallocs) / iters,
		"runtime.gc_cpu_share":      after.GCCPUFraction, // since process start; the window dominates it
	}

	if tr != nil {
		var relaySnap map[string]float64
		if topo.relay != nil {
			relaySnap = topo.relay.Registry().Snapshot()
		}
		topo.stop() // calibrations below must not compete with idle server loops
		res.Layers, res.TailPct = tr.layers(snaps, relaySnap, res.FoldDepth)
		if cfg.TraceOut != "" {
			if err := tr.write(cfg.TraceOut); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	res.Params = paramCount(w)
	res.Failures = append(res.Failures, check(w, res)...)
	return res, nil
}
