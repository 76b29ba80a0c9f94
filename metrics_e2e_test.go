package dssp

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// scrape fetches a Prometheus /metrics endpoint and parses every
// non-histogram-bucket sample line into series -> value.
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// kernelSeries is the dssp_kernels_bound sample a process exposes for one
// package: whichever binding this machine and build produce.
func kernelSeries(pkg, kernel string) string {
	return `dssp_kernels_bound{package="` + pkg + `",kernel="` + kernel + `"}`
}

// TestMetricsEndpointDuringTCPRun starts a 4-worker TCP training run with
// the admin endpoint enabled, scrapes /metrics while training is live, and
// checks afterwards that every cataloged series is exposed and that the
// unified counters agree with the server's status snapshot and traces.
func TestMetricsEndpointDuringTCPRun(t *testing.T) {
	dataset := DatasetConfig{Examples: 128, Classes: 2, ImageSize: 8, Noise: 0.4, Seed: 11}
	const workers = 4
	server, err := Serve(ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      workers,
		Sync:         DefaultDSSP(),
		Model:        ModelSmallMLP,
		Dataset:      dataset,
		LearningRate: 0.1,
		Seed:         5,
		MetricsAddr:  "127.0.0.1:0",
		TraceEvery:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Stop()
	if server.MetricsAddr() == "" {
		t.Fatal("admin endpoint not started")
	}

	reports := make(chan *WorkerReport, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cfg := WorkerConfig{
				ServerAddr: server.Addr(),
				WorkerID:   w,
				Workers:    workers,
				Model:      ModelSmallMLP,
				Dataset:    dataset,
				BatchSize:  8,
				Epochs:     4,
				Seed:       5,
				// Slow iterations down so the mid-run scrape lands while
				// training is genuinely live.
				Delay: 5 * time.Millisecond,
			}
			if w == 0 {
				cfg.MetricsAddr = "127.0.0.1:0" // one worker exposes its own admin endpoint
			}
			rep, err := RunWorker(cfg)
			if err != nil {
				errs <- err
				return
			}
			reports <- rep
		}(w)
	}

	// Scrape mid-training: poll until pushes show up while workers still run.
	deadline := time.Now().Add(30 * time.Second)
	var live map[string]float64
	for {
		live = scrape(t, server.MetricsAddr())
		if live["dssp_push_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no pushes observed on /metrics within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if live["dssp_sessions_active"] < 1 && live["dssp_workers_finished"] < workers {
		t.Errorf("mid-run dssp_sessions_active = %v, want >= 1", live["dssp_sessions_active"])
	}

	var iterations int
	for i := 0; i < workers; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case rep := <-reports:
			iterations += rep.Iterations
		case <-time.After(60 * time.Second):
			t.Fatal("worker timed out")
		}
	}
	select {
	case <-server.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never observed completion")
	}

	final := scrape(t, server.MetricsAddr())
	// Every cataloged server-side series (docs/METRICS.md) must be exposed,
	// even the ones this clean run never increments.
	catalog := []string{
		"dssp_push_total",
		`dssp_push_dropped_total{reason="policy"}`,
		`dssp_push_dropped_total{reason="guard"}`,
		"dssp_release_total",
		"dssp_departures_total",
		"dssp_rejoins_total",
		"dssp_push_staleness_sum",
		"dssp_push_staleness_count",
		"dssp_push_staleness_max",
		`dssp_push_phase_seconds_sum{phase="decode"}`,
		`dssp_push_phase_seconds_count{phase="guard"}`,
		`dssp_push_phase_seconds_count{phase="policy"}`,
		"dssp_release_lag_seconds_count",
		"dssp_pull_total",
		"dssp_pull_seconds_count",
		"dssp_pull_unchanged_total",
		"dssp_guard_flags_total",
		"dssp_guard_evictions_total",
		"dssp_cluster_map_requests_total",
		"dssp_cluster_announces_total",
		"dssp_cluster_promotions_total",
		"dssp_checkpoint_total",
		"dssp_checkpoint_errors_total",
		"dssp_checkpoint_last_failed",
		"dssp_checkpoint_seconds_count",
		"dssp_checkpoint_bytes_written_total",
		"dssp_store_apply_batch_size_sum",
		"dssp_store_apply_seconds_count",
		"dssp_store_clone_seconds_count",
		"dssp_store_clone_reuse_total",
		"dssp_store_clone_alloc_total",
		"dssp_sessions_active",
		"dssp_workers_finished",
		"dssp_store_version",
		"dssp_store_reserved",
		"dssp_store_queue_depth",
		"dssp_store_shards",
		"dssp_store_window",
		`dssp_transport_frames_total{dir="recv",type="Push"}`,
		`dssp_transport_frames_total{dir="sent",type="OK"}`,
		`dssp_transport_bytes_total{dir="recv",type="Push"}`,
		"dssp_transport_batch_size_count",
		"dssp_transport_recv_body_reuse_total",
		"dssp_transport_recv_body_alloc_total",
		"dssp_transport_lane_in_place_total",
		kernelSeries("tensor", tensor.Kernel()),
		kernelSeries("compress", compress.Kernel()),
	}
	for w := 0; w < workers; w++ {
		catalog = append(catalog, `dssp_worker_wait_seconds{worker="`+strconv.Itoa(w)+`"}`)
	}
	for _, series := range catalog {
		if _, ok := final[series]; !ok {
			t.Errorf("cataloged series %q missing from /metrics", series)
		}
	}

	// The unified counters, the public accessors, and /statusz must agree.
	st := server.Status()
	if got := final["dssp_push_total"]; got != float64(st.Pushes) {
		t.Errorf("dssp_push_total = %v, status says %d", got, st.Pushes)
	}
	if st.Pushes == 0 || int(st.Pushes) > iterations {
		t.Errorf("status pushes = %d with %d worker iterations", st.Pushes, iterations)
	}
	if final["dssp_pull_total"] < float64(workers) {
		t.Errorf("dssp_pull_total = %v, want >= %d", final["dssp_pull_total"], workers)
	}
	if final["dssp_store_version"] != float64(st.Version) {
		t.Errorf("dssp_store_version = %v, status version %d", final["dssp_store_version"], st.Version)
	}
	if final["dssp_workers_finished"] != workers {
		t.Errorf("dssp_workers_finished = %v, want %d", final["dssp_workers_finished"], workers)
	}
	if final[`dssp_transport_frames_total{dir="recv",type="Push"}`] < float64(st.Pushes) {
		t.Errorf("transport saw %v push frames, server applied %d",
			final[`dssp_transport_frames_total{dir="recv",type="Push"}`], st.Pushes)
	}
	if final[`dssp_transport_bytes_total{dir="recv",type="Push"}`] <= 0 {
		t.Error("no push bytes metered on the transport")
	}

	// /statusz renders the same snapshot as JSON.
	resp, err := http.Get("http://" + server.MetricsAddr() + "/statusz?traces=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statusz struct {
		Status struct {
			Workers  int    `json:"workers"`
			Pushes   uint64 `json:"pushes"`
			Version  int64  `json:"version"`
			Sessions []struct {
				Worker int `json:"worker"`
			} `json:"sessions"`
		} `json:"status"`
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statusz); err != nil {
		t.Fatalf("/statusz decode: %v", err)
	}
	if statusz.Status.Workers != workers {
		t.Errorf("/statusz workers = %d, want %d", statusz.Status.Workers, workers)
	}
	if statusz.Status.Pushes != st.Pushes || statusz.Status.Version != st.Version {
		t.Errorf("/statusz (pushes=%d version=%d) disagrees with Status() (pushes=%d version=%d)",
			statusz.Status.Pushes, statusz.Status.Version, st.Pushes, st.Version)
	}

	// TraceEvery=1 traces every push; completed traces must be well-formed.
	traces := server.Traces()
	if len(traces) == 0 {
		t.Fatal("no push traces recorded with TraceEvery=1")
	}
	if len(statusz.Traces) != len(traces) {
		t.Errorf("/statusz returned %d traces, server holds %d", len(statusz.Traces), len(traces))
	}
	for _, tr := range traces {
		if tr.Dropped != "" {
			continue
		}
		if tr.Ticket == 0 || tr.ReceivedAt.IsZero() || tr.EnqueuedAt.IsZero() ||
			tr.AppliedAt.IsZero() || tr.ReleasedAt.IsZero() {
			t.Fatalf("applied trace missing lifecycle stamps: %+v", tr)
		}
		if tr.AppliedAt.Before(tr.EnqueuedAt) || tr.ReleasedAt.Before(tr.AppliedAt) {
			t.Fatalf("trace stamps out of order: %+v", tr)
		}
	}
}

// TestWorkerMetricsEndpoint scrapes a worker's own admin endpoint in the
// middle of its run, on a flat server and on a server group: the worker-side
// series come from the one client every route builds. The run is BSP over two
// workers and the second worker only starts after the scrape, so the scraped
// worker is parked at the first barrier — registered, one push on the wire,
// endpoint open — for as long as the test needs: it can neither finish and
// close the endpoint early nor be caught before it has registered.
func TestWorkerMetricsEndpoint(t *testing.T) {
	dataset := DatasetConfig{Examples: 64, Classes: 2, ImageSize: 8, Noise: 0.4, Seed: 13}
	for _, group := range []bool{false, true} {
		name := "flat"
		if group {
			name = "group"
		}
		t.Run(name, func(t *testing.T) {
			// serve starts one server of the job, or one member of the group.
			serve := func(cluster ClusterOptions) *Server {
				server, err := Serve(ServerConfig{
					Addr:         "127.0.0.1:0",
					Workers:      2,
					Sync:         Sync{Paradigm: BSP},
					Model:        ModelSmallMLP,
					Dataset:      dataset,
					LearningRate: 0.1,
					Seed:         5,
					Cluster:      cluster,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(server.Stop)
				return server
			}
			var server *Server
			if !group {
				server = serve(ClusterOptions{})
			} else {
				server = serve(ClusterOptions{Role: RoleCoordinator, Servers: 2})
				for i := 0; i < 2; i++ {
					serve(ClusterOptions{Role: RoleData, Coordinator: server.Addr(), Servers: 2, Index: i})
				}
			}

			done := make(chan error, 2)
			addrs := make(chan string, 1)
			run := func(cfg WorkerConfig) {
				cfg.ServerAddr, cfg.Workers, cfg.Cluster = server.Addr(), 2, group
				cfg.Model, cfg.Dataset, cfg.BatchSize, cfg.Epochs, cfg.Seed = ModelSmallMLP, dataset, 8, 3, 5
				_, err := RunWorker(cfg)
				done <- err
			}
			go run(WorkerConfig{
				WorkerID:    0,
				MetricsAddr: "127.0.0.1:0",
				OnAdminAddr: func(addr string) { addrs <- addr },
			})

			var addr string
			select {
			case addr = <-addrs:
			case err := <-done:
				t.Fatalf("worker exited before exposing admin endpoint: %v", err)
			case <-time.After(30 * time.Second):
				t.Fatal("worker admin endpoint never came up")
			}
			// Poll until the worker has registered and pushed: from then on it
			// waits at the barrier for worker 1, and every series below is
			// exposed.
			want := []string{
				"dssp_worker_pull_seconds_count",
				"dssp_worker_push_rtt_seconds_count",
				"dssp_worker_iterations_total",
				kernelSeries("tensor", tensor.Kernel()),
				kernelSeries("compress", compress.Kernel()),
			}
			var mid map[string]float64
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				mid = scrape(t, addr)
				if mid[`dssp_transport_frames_total{dir="sent",type="Push"}`] >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("worker never reached its first barrier; last scrape: %v", keys(mid))
				}
			}
			// A scrape lists the registry's families before it reads their
			// values, so the one that first saw the push may have started
			// before the worker registered its own series; one begun after the
			// push has them all.
			mid = scrape(t, addr)
			for _, series := range want {
				if _, ok := mid[series]; !ok {
					t.Errorf("worker series %q missing from /metrics", series)
				}
			}

			go run(WorkerConfig{WorkerID: 1})
			for i := 0; i < 2; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
