package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePromGolden pins the exposition format byte for byte: HELP/TYPE
// headers, label rendering and escaping, cumulative histogram buckets with
// the implicit +Inf, and gauge funcs evaluated at scrape time.
func TestWritePromGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_ops_total", "Operations.").Add(3)
	frames := reg.CounterVec("test_frames_total", "Frames by dir.", "dir")
	frames.With("in").Add(2)
	frames.With("out").Inc()
	reg.Gauge("test_depth", "Queue depth.").Set(4.5)
	reg.GaugeFunc("test_version", "Store version.", func() float64 { return 17 })
	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	reg.Counter("test_quoted_total", `Help with \ and`+"\n"+`newline.`)
	labeled := reg.GaugeVec("test_labeled", "", "name")
	labeled.With(`a"b\c`).Set(1)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_ops_total Operations.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_frames_total Frames by dir.
# TYPE test_frames_total counter
test_frames_total{dir="in"} 2
test_frames_total{dir="out"} 1
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 4.5
# HELP test_version Store version.
# TYPE test_version gauge
test_version 17
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 2.55
test_latency_seconds_count 3
# HELP test_quoted_total Help with \\ and\nnewline.
# TYPE test_quoted_total counter
test_quoted_total 0
# TYPE test_labeled gauge
test_labeled{name="a\"b\\c"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshotFlattens(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("snap_total", "").Add(7)
	reg.CounterVec("snap_by_kind_total", "", "kind").With("a").Add(2)
	reg.GaugeFunc("snap_fn", "", func() float64 { return 3 })
	h := reg.Histogram("snap_seconds", "", LatencyBuckets)
	h.Observe(0.25)
	h.Observe(0.75)

	snap := reg.Snapshot()
	checks := map[string]float64{
		"snap_total":                   7,
		`snap_by_kind_total{kind="a"}`: 2,
		"snap_fn":                      3,
		"snap_seconds_sum":             1,
		"snap_seconds_count":           2,
	}
	for k, want := range checks {
		if got, ok := snap[k]; !ok || got != want {
			t.Errorf("snapshot[%q] = %v (present=%v), want %v", k, got, ok, want)
		}
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("idem_total", "")
	b := reg.Counter("idem_total", "")
	if a != b {
		t.Error("re-registering a counter returned a different instance")
	}
	v := reg.CounterVec("idem_vec_total", "", "k")
	if v.With("x") != v.With("x") {
		t.Error("same label values returned different children")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	reg.Gauge("idem_total", "") // counter re-registered as gauge: must panic
}

// TestRegistryConcurrentHammer drives every metric kind from many
// goroutines while scrapes run concurrently; run under -race this is the
// registry's thread-safety proof. Counts are verified exactly afterwards.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 16
		iters      = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scrapers exercise WriteProm and Snapshot against writers.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = reg.WriteProm(io.Discard)
					_ = reg.Snapshot()
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			c := reg.Counter("hammer_total", "")
			vec := reg.CounterVec("hammer_by_worker_total", "", "worker")
			child := vec.With(fmt.Sprint(g % 4))
			gauge := reg.Gauge("hammer_gauge", "")
			h := reg.Histogram("hammer_seconds", "", []float64{0.5})
			for i := 0; i < iters; i++ {
				c.Inc()
				child.Inc()
				gauge.Add(1)
				h.Observe(float64(i%2) * 0.9)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := reg.Counter("hammer_total", "").Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	var byWorker uint64
	vec := reg.CounterVec("hammer_by_worker_total", "", "worker")
	for i := 0; i < 4; i++ {
		byWorker += vec.With(fmt.Sprint(i)).Value()
	}
	if byWorker != goroutines*iters {
		t.Errorf("labeled counters sum to %d, want %d", byWorker, goroutines*iters)
	}
	if got := reg.Gauge("hammer_gauge", "").Value(); got != goroutines*iters {
		t.Errorf("gauge = %v, want %d", got, goroutines*iters)
	}
	h := reg.Histogram("hammer_seconds", "", []float64{0.5})
	if h.Count() != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*iters)
	}
}

func TestPushTracerLifecycle(t *testing.T) {
	tr := NewPushTracer(1)
	now := time.Now()

	// An applied push: sample → track → applied → released.
	p := tr.Sample(2, 10)
	if p == nil {
		t.Fatal("Every=1 must sample every push")
	}
	p.Ticket, p.Base, p.Staleness = 5, 3, 1
	tr.Track(p)
	tr.Applied(4, 6, 2, now)
	tr.Released(5, now.Add(time.Millisecond))

	// A dropped push never gets a ticket.
	d := tr.Sample(1, 11)
	tr.Abandon(d, "guard")

	traces := tr.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	applied := traces[0]
	if applied.Ticket != 5 || applied.Coalesced != 2 || applied.AppliedAt.IsZero() || applied.ReleasedAt.IsZero() {
		t.Errorf("applied trace incomplete: %+v", applied)
	}
	if traces[1].Dropped != "guard" {
		t.Errorf("dropped trace reason = %q, want guard", traces[1].Dropped)
	}
	if tr.Total() != 2 {
		t.Errorf("total = %d, want 2", tr.Total())
	}

	// Ring overflow keeps the newest capacity traces.
	for i := 0; i < DefaultTraceCapacity; i++ {
		p := tr.Sample(0, i)
		tr.Abandon(p, "guard")
	}
	traces = tr.Traces()
	if got := len(traces); got != DefaultTraceCapacity {
		t.Errorf("ring holds %d traces, want capacity %d", got, DefaultTraceCapacity)
	}
	if first, last := traces[0], traces[len(traces)-1]; first.Iteration != 0 || last.Iteration != DefaultTraceCapacity-1 {
		t.Errorf("ring spans iterations %d..%d, want the newest 0..%d", first.Iteration, last.Iteration, DefaultTraceCapacity-1)
	}
	if tr.Total() != DefaultTraceCapacity+2 {
		t.Errorf("total = %d, want %d", tr.Total(), DefaultTraceCapacity+2)
	}
}

func TestPushTracerSamplingAndNil(t *testing.T) {
	if NewPushTracer(-1) != nil {
		t.Error("negative Every must disable tracing")
	}
	var nilTr *PushTracer
	if nilTr.Sample(0, 0) != nil {
		t.Error("nil tracer sampled")
	}
	nilTr.Track(nil)
	nilTr.Abandon(nil, "x")
	nilTr.Applied(0, 1, 1, time.Time{})
	nilTr.Released(1, time.Time{})
	if nilTr.Traces() != nil || nilTr.Total() != 0 {
		t.Error("nil tracer reported traces")
	}

	tr := NewPushTracer(4)
	sampled := 0
	for i := 0; i < 64; i++ {
		if p := tr.Sample(0, i); p != nil {
			sampled++
			tr.Abandon(p, "test")
		}
	}
	if sampled != 16 {
		t.Errorf("Every=4 sampled %d of 64, want 16", sampled)
	}
}

func TestServeAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("admin_test_total", "A counter.").Add(5)
	tracer := NewPushTracer(1)
	p := tracer.Sample(1, 2)
	tracer.Abandon(p, "guard")

	admin, err := ServeAdmin("127.0.0.1:0", reg,
		func() any { return map[string]int{"workers": 3} },
		tracer.Traces)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks exposition version", ctype)
	}
	if !strings.Contains(body, "admin_test_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	if body, _ := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	body, _ = get("/statusz?traces=1")
	var status struct {
		Status map[string]int `json:"status"`
		Traces []PushTrace    `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if status.Status["workers"] != 3 {
		t.Errorf("/statusz status = %v", status.Status)
	}
	if len(status.Traces) != 1 || status.Traces[0].Dropped != "guard" {
		t.Errorf("/statusz traces = %+v", status.Traces)
	}

	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}
