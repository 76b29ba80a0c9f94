package dssp

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/obs"
	"dssp/internal/ps"
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
// package: whichever binding this machine and build produce, which the
// catalog cannot name.
func kernelSeries(pkg, kernel string) string {
	return `dssp_kernels_bound{package="` + pkg + `",kernel="` + kernel + `"}`
}

// catalogEntry is one series docs/METRICS.md catalogs: its family name and,
// when its row lists the values of each of its labels, the labeled children
// by name — every combination, labels in the row's order.
type catalogEntry struct {
	family   string
	children []string
}

// labelValues matches one label's part of a catalog row's labels cell, a
// list of its values: `reason` = `policy`, `guard`. Several labels are such
// parts joined by "; ".
var labelValues = regexp.MustCompile("^`(\\w+)` = ((?:`[^`]+`(?:, )?)+)$")

// labelChildren expands a labels cell into the children it names, or nil
// when it lists no values or a part of it is not a plain list.
func labelChildren(cell string) []string {
	children := []string{""}
	for _, part := range strings.Split(cell, "; ") {
		m := labelValues.FindStringSubmatch(part)
		if m == nil {
			return nil
		}
		var next []string
		for _, prefix := range children {
			if prefix != "" {
				prefix += ","
			}
			for _, v := range strings.Split(m[2], ", ") {
				next = append(next, prefix+m[1]+`="`+strings.Trim(v, "`")+`"`)
			}
		}
		children = next
	}
	return children
}

// metricsCatalog parses docs/METRICS.md into its sections' series.
func metricsCatalog(t *testing.T) map[string][]catalogEntry {
	t.Helper()
	raw, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	catalog := make(map[string][]catalogEntry)
	section := ""
	for _, line := range strings.Split(string(raw), "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			section = title
			continue
		}
		if !strings.HasPrefix(line, "| `dssp_") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("docs/METRICS.md: a series row with %d cells: %q", len(cells), line)
		}
		catalog[section] = append(catalog[section], catalogEntry{
			family:   strings.Trim(strings.TrimSpace(cells[1]), "`"),
			children: labelChildren(strings.TrimSpace(cells[3])),
		})
	}
	return catalog
}

// exposedFamilies reads the metric families an endpoint's /metrics declares
// (its # TYPE lines), by name, with their types.
func exposedFamilies(t *testing.T, addr string) map[string]string {
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
	families := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = f[3]
		}
	}
	return families
}

// checkCatalog holds an endpoint to docs/METRICS.md both ways: every series
// of the named sections is exposed, with each labeled child its row names
// (samples is a scrape of the endpoint), and every dssp_ family exposed is
// cataloged in some section.
func checkCatalog(t *testing.T, addr string, samples map[string]float64, sections ...string) {
	t.Helper()
	catalog := metricsCatalog(t)
	exposed := exposedFamilies(t, addr)
	for _, section := range sections {
		entries := catalog[section]
		if len(entries) == 0 {
			t.Fatalf("docs/METRICS.md has no section %q", section)
		}
		for _, e := range entries {
			kind, ok := exposed[e.family]
			if !ok {
				t.Errorf("cataloged series %s (%s) missing from /metrics", e.family, section)
				continue
			}
			for _, child := range e.children {
				series := e.family + "{" + child + "}"
				if kind == "histogram" {
					series = e.family + "_count{" + child + "}"
				}
				if !has(samples, series) {
					t.Errorf("cataloged series %s missing from /metrics", series)
				}
			}
		}
	}
	cataloged := make(map[string]bool)
	for _, entries := range catalog {
		for _, e := range entries {
			cataloged[e.family] = true
		}
	}
	for family := range exposed {
		if strings.HasPrefix(family, "dssp_") && !cataloged[family] {
			t.Errorf("/metrics exposes %s, which docs/METRICS.md does not catalog", family)
		}
	}
}

// has reports whether a scrape holds series.
func has(samples map[string]float64, series string) bool {
	_, ok := samples[series]
	return ok
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
	// even the ones this clean run never increments, and nothing exposed may
	// be missing from the catalog.
	checkCatalog(t, server.MetricsAddr(), final, "Process (every admin endpoint: server, relay, worker)", "Push pipeline (server)", "Pulls (server)",
		"Sessions, guard, checkpoints (server)", "Server groups (server)", "Parameter store",
		"Aggregation tier (root)", "Transport (server and worker sides)")
	// The rows the catalog cannot enumerate.
	hand := []string{kernelSeries("tensor", tensor.Kernel()), kernelSeries("compress", compress.Kernel())}
	for w := 0; w < workers; w++ {
		hand = append(hand, `dssp_worker_wait_seconds{worker="`+strconv.Itoa(w)+`"}`)
	}
	for _, series := range hand {
		if !has(final, series) {
			t.Errorf("series %q missing from /metrics", series)
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

	// The paper's numbers, staleness and each slot's wait, are the same
	// series in the snapshot as on /metrics.
	if n := final["dssp_push_staleness_count"]; n == 0 || st.MeanStaleness != final["dssp_push_staleness_sum"]/n {
		t.Errorf("status mean staleness %v, /metrics %v over %v pushes",
			st.MeanStaleness, final["dssp_push_staleness_sum"], n)
	}
	if got := final["dssp_push_staleness_max"]; got != float64(st.MaxStaleness) {
		t.Errorf("dssp_push_staleness_max = %v, status says %d", got, st.MaxStaleness)
	}
	if len(st.WaitSeconds) != workers {
		t.Fatalf("status has %d wait slots, want %d", len(st.WaitSeconds), workers)
	}
	for w, sec := range st.WaitSeconds {
		if got := final[`dssp_worker_wait_seconds{worker="`+strconv.Itoa(w)+`"}`]; got != sec {
			t.Errorf("dssp_worker_wait_seconds{worker=%d} = %v, status says %v", w, got, sec)
		}
	}

	// /statusz renders the same snapshot as JSON.
	resp, err := http.Get("http://" + server.MetricsAddr() + "/statusz?traces=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statusz struct {
		Status ps.ServerStatus `json:"status"`
		Traces []obs.PushTrace `json:"traces"`
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
	if got := statusz.Status; got.MeanStaleness != st.MeanStaleness || got.MaxStaleness != st.MaxStaleness ||
		!slices.Equal(got.WaitSeconds, st.WaitSeconds) {
		t.Errorf("/statusz (staleness mean %v max %d, waits %v s) disagrees with Status() (%v, %d, %v s)",
			got.MeanStaleness, got.MaxStaleness, got.WaitSeconds, st.MeanStaleness, st.MaxStaleness, st.WaitSeconds)
	}

	// TraceEvery=1 traces every push; completed traces must be well-formed.
	traces := statusz.Traces
	if len(traces) == 0 {
		t.Fatal("no push traces recorded with TraceEvery=1")
	}
	if held := min(statusz.Status.TracesCompleted, obs.DefaultTraceCapacity); uint64(len(traces)) != held {
		t.Errorf("/statusz returned %d traces, server holds %d", len(traces), held)
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

// statusz fetches the server snapshot a /statusz endpoint serves.
func statusz(t *testing.T, addr string) ps.ServerStatus {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		t.Fatalf("/statusz on %s: %v", addr, err)
	}
	defer resp.Body.Close()
	var body struct {
		Status ps.ServerStatus `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/statusz decode: %v", err)
	}
	return body.Status
}

// TestStatuszReportsRoleState reads /statusz on the three roles whose state
// an operator sees only there: a flat server restored from a checkpoint
// reports restored and the version it resumed at; a coordinator its cluster
// map and map version; and a standby — a second data server for an owned
// range — reports its owner as its primary and, once the owner died,
// promoted, with the coordinator's map, one version on, naming it as the
// owner.
func TestStatuszReportsRoleState(t *testing.T) {
	dataset := DatasetConfig{Examples: 32, Classes: 2, ImageSize: 8, Seed: 1}
	serve := func(cluster ClusterOptions, opts Options) *Server {
		t.Helper()
		server, err := Serve(ServerConfig{
			Addr:         "127.0.0.1:0",
			Workers:      1,
			Sync:         Sync{Paradigm: ASP},
			Dataset:      dataset,
			LearningRate: 0.1,
			Seed:         1,
			Options:      opts,
			MetricsAddr:  "127.0.0.1:0",
			Cluster:      cluster,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(server.Stop)
		return server
	}
	// eventually polls the server's /statusz until ok holds, for up to 10s.
	eventually := func(server *Server, what string, ok func(ps.ServerStatus) bool) ps.ServerStatus {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := statusz(t, server.MetricsAddr())
			if ok(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("/statusz never showed %s: %+v", what, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	t.Run("restored", func(t *testing.T) {
		opts := Options{Checkpoint: Checkpoint{Dir: t.TempDir()}}
		first := serve(ClusterOptions{}, opts)
		if st := statusz(t, first.MetricsAddr()); st.Restored {
			t.Fatal("a server started on an empty checkpoint directory reports restored")
		}
		if _, err := RunWorker(WorkerConfig{ServerAddr: first.Addr(), Workers: 1,
			Dataset: dataset, BatchSize: 8, Epochs: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// Stop writes the final checkpoint.
		first.Stop()
		version := first.Status().Version
		if version == 0 {
			t.Fatal("the first run applied no updates")
		}
		st := statusz(t, serve(ClusterOptions{}, opts).MetricsAddr())
		if !st.Restored || st.Version != version {
			t.Fatalf("/statusz restored=%v at version %d, want restored at %d", st.Restored, st.Version, version)
		}
	})

	t.Run("group", func(t *testing.T) {
		coord := serve(ClusterOptions{Role: RoleCoordinator, Servers: 1}, Options{})
		member := ClusterOptions{Coordinator: coord.Addr()}
		member.Role = RoleData
		data := serve(member, Options{})

		before := eventually(coord, "the data server in the map", func(st ps.ServerStatus) bool {
			return len(st.Map) == 1
		})
		if before.Map[0].Addr != data.Addr() || before.MapVersion < 1 {
			t.Fatalf("coordinator map %+v at version %d, want %s at a positive version", before.Map, before.MapVersion, data.Addr())
		}
		backup := serve(member, Options{})
		eventually(backup, "the backup's primary", func(st ps.ServerStatus) bool { return st.Primary == data.Addr() })
		if statusz(t, backup.MetricsAddr()).Promoted {
			t.Fatal("the backup reports promoted while its primary lives")
		}

		data.Stop()
		eventually(backup, "the backup promoted", func(st ps.ServerStatus) bool { return st.Promoted })
		after := statusz(t, coord.MetricsAddr())
		if len(after.Map) != 1 || after.Map[0].Addr != backup.Addr() || after.MapVersion != before.MapVersion+1 {
			t.Fatalf("coordinator map %+v at version %d after promotion, want %s at %d",
				after.Map, after.MapVersion, backup.Addr(), before.MapVersion+1)
		}
	})
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
					serve(ClusterOptions{Role: RoleData, Coordinator: server.Addr(), Index: i})
				}
			}

			done := make(chan error, 2)
			run := func(cfg WorkerConfig) {
				cfg.ServerAddr, cfg.Workers = server.Addr(), 2
				cfg.Model, cfg.Dataset, cfg.BatchSize, cfg.Epochs, cfg.Seed = ModelSmallMLP, dataset, 8, 3, 5
				_, err := RunWorker(cfg)
				done <- err
			}
			// The worker's admin port is reserved up front, the way
			// clustertest.FreePort reserves a server's.
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := l.Addr().String()
			l.Close()
			go run(WorkerConfig{WorkerID: 0, MetricsAddr: addr})
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
					resp.Body.Close()
					break
				}
				select {
				case err := <-done:
					t.Fatalf("worker exited before exposing admin endpoint: %v", err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("worker admin endpoint never came up")
				}
			}
			// Poll until the worker has registered and pushed: from then on it
			// waits at the barrier for worker 1, and every worker series is
			// exposed.
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
			checkCatalog(t, addr, mid, "Process (every admin endpoint: server, relay, worker)", "Transport (server and worker sides)", "Worker")
			for _, series := range []string{kernelSeries("tensor", tensor.Kernel()), kernelSeries("compress", compress.Kernel())} {
				if !has(mid, series) {
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
