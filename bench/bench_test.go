package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if lo, hi := minMax(xs); lo != 1 || hi != 5 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
	if got := mean(xs); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(100-p) < 1000 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestSelfTimeAndUnaccounted(t *testing.T) {
	spans := []span{
		{Kind: spanIter, Start: 0, End: 100, Parent: -1},
		{Kind: spanPull, Start: 10, End: 30, Parent: 0},
		{Kind: spanForward, Start: 40, End: 90, Parent: 0},
		{Kind: spanBackward, Start: 50, End: 70, Parent: 2}, // grandchild
		{Kind: spanIter, Start: 100, End: 150, Parent: -1, Iter: 1},
		{Kind: spanPull, Start: 100, End: 145, Parent: 4, Iter: 1},
	}
	self := selfTimes(spans)
	want := []int64{30, 20, 30, 20, 5, 45}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Kind, self[i], want[i])
		}
	}
	byName, roots := budget(spans)
	if byName["dssp.unaccounted"] != 35 {
		t.Errorf("unaccounted = %d, want 35", byName["dssp.unaccounted"])
	}
	if byName["ps.pull"] != 65 {
		t.Errorf("ps.pull self = %d, want 65", byName["ps.pull"])
	}
	var total int64
	for _, v := range byName {
		total += v
	}
	if sum := roots[0] + roots[1]; float64(total) != sum || sum != 150 {
		t.Errorf("budget sums to %d, iterations to %v, want both 150", total, sum)
	}
	if got := durationsOf(spans, spanPull); len(got) != 2 || got[1] != 45 {
		t.Errorf("durationsOf(ps.pull) = %v", got)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestWorkloadsValidateAndMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if err := w.validate(); err != nil {
			t.Error(err)
		}
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, b.Workloads[i].Name, w.Name)
		}
		if len(b.Workloads[i].Why) == 0 || len(b.Workloads[i].Why) > 200 || len(w.Why) > 200 {
			t.Errorf("workload %q needs a why of 1 to 200 characters", w.Name)
		}
		for id, e := range w.epochs(5 * time.Second) {
			if e < 1 {
				t.Errorf("%s: worker %d has no quota", w.Name, id)
			}
		}
	}
	bad := workloads[0]
	bad.Topology = "ring"
	if bad.validate() == nil {
		t.Error("an unknown topology validated")
	}
	bad = workloads[0]
	bad.Batch = 7
	if bad.validate() == nil {
		t.Error("a batch that does not divide the shard validated")
	}
}

// The metric names are fixed: BENCHMARK.json and the code must not drift.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		for name, tight := range tightBounds[m.Name] {
			if _, err := findWorkload(name); err != nil || tight <= 0 || tight >= m.Bound {
				t.Errorf("%s on %q: per-workload bound %v must name a workload and be under %v", m.Name, name, tight, m.Bound)
			}
		}
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json runs %d s, the code defaults to %d", b.RunSeconds, runSeconds)
	}
	if got := endToEnd[1].boundOn("hetero-dssp"); endToEnd[1].Name != "iters_per_s" || got != 0.03 {
		t.Errorf("iters_per_s on hetero-dssp is held to %v, want 0.03", got)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	known := make(map[string]bool)
	for i, m := range perLayer {
		if g := b.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, g, m)
		}
		if known[m.Name] {
			t.Errorf("per-layer metric %q listed twice", m.Name)
		}
		known[m.Name] = true
	}
	for _, row := range budgetRows {
		if !known[row] {
			t.Errorf("budget row %q is not a per-layer metric", row)
		}
	}
}

// TestSmokeHeteroInProcess drives run → report → checks end to end on the
// cheapest workload at a 16-iteration quota, calling the child's run
// function directly instead of spawning.
func TestSmokeHeteroInProcess(t *testing.T) {
	w, err := findWorkload("hetero-dssp")
	if err != nil {
		t.Fatal(err)
	}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	inProcess := func(cfg repConfig, _ time.Duration) (*repResult, error) {
		if cfg.Traced {
			cfg.TraceOut = traceOut
		}
		return runRep(cfg)
	}
	ws := measure(w, 1, 50*time.Millisecond, traceBoth, inProcess)
	if ws.Quota != [workers]int{16, 16} {
		t.Fatalf("quota = %v, want 16 + 16", ws.Quota)
	}
	if !ws.Correct || ws.Failed != 0 || ws.Attempted != (repsPerRun+1)*32 {
		t.Fatalf("correct=%v attempted=%d failed=%d failures=%v", ws.Correct, ws.Attempted, ws.Failed, ws.Failures)
	}
	for _, m := range endToEnd {
		if st := ws.EndToEnd[m.Name]; st.N != repsPerRun || st.Median <= 0 || math.IsNaN(st.Median) {
			t.Errorf("%s = %+v, want %d positive samples", m.Name, st, repsPerRun)
		}
	}
	for _, m := range perLayer {
		if _, ok := ws.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	sum := 0.0
	for _, row := range budgetRows {
		sum += ws.PerLayer[row].Median
	}
	if iter := ws.PerLayer["dssp.iter_ms_mean"].Median; math.Abs(sum-iter) > 1e-6*iter {
		t.Errorf("layer budget sums to %v ms, iteration mean is %v ms", sum, iter)
	}
	if ws.PerLayer["dssp.delay_ms"].Median < 4 {
		t.Errorf("dssp.delay_ms = %v, want the emulated GPU time", ws.PerLayer["dssp.delay_ms"].Median)
	}

	var spans []traceEvent
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if want := 32 * spansPerIter; len(spans) != want {
		t.Errorf("trace holds %d spans, want %d", len(spans), want)
	}

	var table bytes.Buffer
	printWorkload(&table, ws)
	for _, want := range []string{"iters_per_s", "dssp.unaccounted_ms", "ps.rpc_residual_ms", "one iteration"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("human table lacks %q", want)
		}
	}
	line := summary{Workloads: []workloadSummary{ws}}.contractLine()
	if !line.Correct || line.Attempted != ws.Attempted || len(line.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("contract line: correct=%v attempted=%d metrics=%d", line.Correct, line.Attempted, len(line.Metrics))
	}
	if line.Metrics["setup_s"].Unit != "s" {
		t.Errorf("setup_s unit = %q", line.Metrics["setup_s"].Unit)
	}
}

func TestCheckFlagsWrongOutputs(t *testing.T) {
	w, _ := findWorkload("hetero-dssp")
	good := repResult{
		Quota: [workers]int{16, 16}, Iterations: [workers]int{16, 16},
		DurationS: [workers]float64{0.1, 0.3}, FinalLoss: [workers]float64{0.1, 0.2},
		Accuracy: 1, Updates: 32, Params: 1000,
		EndToEnd: map[string]float64{"wire_bytes_per_iter": 8040},
	}
	if bad := check(w, &good); len(bad) != 0 {
		t.Fatalf("a correct repetition failed its checks: %v", bad)
	}
	for name, breakIt := range map[string]func(*repResult){
		"short quota":  func(r *repResult) { r.Iterations[1] = 15; r.Updates = 31 },
		"lost update":  func(r *repResult) { r.Updates = 31 },
		"nan loss":     func(r *repResult) { r.FinalLoss[0] = math.NaN() },
		"high loss":    func(r *repResult) { r.FinalLoss[1] = 0.6 },
		"low accuracy": func(r *repResult) { r.Accuracy = 0.5 },
		"wire bytes":   func(r *repResult) { r.EndToEnd = map[string]float64{"wire_bytes_per_iter": 9000} },
		"barrier":      func(r *repResult) { r.DurationS[0] = 0.25 },
	} {
		r := good
		breakIt(&r)
		if len(check(w, &r)) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
	tree, _ := findWorkload("tree-comm")
	r := good
	r.Params, r.EndToEnd, r.FoldDepth = 262440, map[string]float64{"wire_bytes_per_iter": 2099632}, 1.5
	if len(check(tree, &r)) == 0 {
		t.Error("a relay that did not fold was not flagged")
	}
	if why := untrusted(map[string]float64{"dssp.iter_ms_mean": 10, "dssp.unaccounted_ms": 2, "trace.overhead_share": -0.08}); len(why) != 2 {
		t.Errorf("untrusted = %v, want both limits reported", why)
	}
}

func TestCompareVerdicts(t *testing.T) {
	st := func(median, lo, hi float64, better string) stat {
		return stat{Median: median, Q1: lo, Q3: hi, N: 5, Better: better, Bound: 0.10}
	}
	floor := func(s stat) stat { s.Floor = floors["setup_s"]; return s }
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"faster is within", st(100, 99, 101, "higher"), st(120, 119, 121, "higher"), verdictWithin},
		{"5% slower is within", st(100, 99, 101, "higher"), st(95, 94, 96, "higher"), verdictWithin},
		{"15% slower is worse", st(100, 99, 101, "higher"), st(85, 84, 86, "higher"), verdictWorse},
		{"15% more cpu is worse", st(100, 99, 101, "lower"), st(115, 114, 116, "lower"), verdictWorse},
		{"noisy is unresolved", st(100, 90, 110, "higher"), st(85, 84, 86, "higher"), verdictUnresolved},
		{"0.04 s on a 0.1 s set-up is under the floor", floor(st(0.10, 0.09, 0.11, "lower")), st(0.14, 0.13, 0.15, "lower"), verdictWithin},
		{"0.06 s on a 0.1 s set-up is worse", floor(st(0.10, 0.09, 0.11, "lower")), st(0.16, 0.15, 0.17, "lower"), verdictWorse},
	} {
		if _, _, got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// -compare judges like with like only: same seed, same run length.
func TestCompareRejectsUnlikeRuns(t *testing.T) {
	write := func(name string, s summary) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", summary{Seed: 1, Seconds: runSeconds})
	if code := compareMain(a, write("b.json", summary{Seed: 1, Seconds: runSeconds})); code != 0 {
		t.Errorf("like runs: exit %d, want 0", code)
	}
	if code := compareMain(a, write("b.json", summary{Seed: 2, Seconds: runSeconds})); code != 2 {
		t.Errorf("another seed: exit %d, want 2", code)
	}
	if code := compareMain(a, write("b.json", summary{Seed: 1, Seconds: 5})); code != 2 {
		t.Errorf("another run length: exit %d, want 2", code)
	}
}
