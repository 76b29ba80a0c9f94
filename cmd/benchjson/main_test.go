package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestParseKeepsLastMeasurementPerName pins the write-time de-duplication: a
// pinned benchmark re-measured and appended after a full pass (make
// bench-baseline) yields one entry, in its first position, with the later
// numbers.
func TestParseKeepsLastMeasurementPerName(t *testing.T) {
	doc, err := parse(strings.NewReader(`goos: linux
pkg: dssp/internal/ps
BenchmarkA-2   	      10	      5000 ns/op	     128 B/op
BenchmarkB-2   	      10	       700 ns/op
PASS
pkg: dssp/internal/ps
BenchmarkA-2   	    2000	      4000 ns/op
ok  	dssp/internal/ps	1.0s
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 || doc.Results[0].Name != "BenchmarkA-2" || doc.Results[1].Name != "BenchmarkB-2" {
		t.Fatalf("results = %+v, want BenchmarkA-2 then BenchmarkB-2", doc.Results)
	}
	a := doc.Results[0]
	if a.Iterations != 2000 || a.Metrics["ns/op"] != 4000 {
		t.Fatalf("BenchmarkA-2 = %+v, want the later measurement (2000 iterations, 4000 ns/op)", a)
	}
	if _, stale := a.Metrics["B/op"]; stale {
		t.Fatalf("BenchmarkA-2 kept a metric of the superseded measurement: %+v", a)
	}
}

// TestStampEnvironmentRecordsTheMachine pins the context keys later
// comparisons read before trusting a ratio.
func TestStampEnvironmentRecordsTheMachine(t *testing.T) {
	doc := &Document{Context: map[string]string{"goos": "linux"}}
	stampEnvironment(doc)
	want := map[string]string{
		"goos":       "linux",
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
	}
	for k, v := range want {
		if doc.Context[k] != v {
			t.Errorf("context[%q] = %q, want %q", k, doc.Context[k], v)
		}
	}
}

// writeBaseline stores a baseline document with the given ns/op values.
func writeBaseline(t *testing.T, ns map[string]float64) string {
	t.Helper()
	doc := Document{Results: make([]Result, 0, len(ns))}
	for name, v := range ns {
		doc.Results = append(doc.Results, Result{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": v}})
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func resultDoc(ns map[string]float64) *Document {
	doc := &Document{}
	for name, v := range ns {
		doc.Results = append(doc.Results, Result{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": v}})
	}
	return doc
}

// TestThresholdGateFailsPinnedRegressions pins the -threshold contract: a
// pinned benchmark past the allowed ratio is reported, an unpinned one —
// however much slower — is not, and neither is a pinned one inside the
// budget.
func TestThresholdGateFailsPinnedRegressions(t *testing.T) {
	base := writeBaseline(t, map[string]float64{
		"BenchmarkPinned/fast-1":   100,
		"BenchmarkPinned/slow-1":   100,
		"BenchmarkUnpinned/slow-1": 100,
	})
	doc := resultDoc(map[string]float64{
		"BenchmarkPinned/fast-1":   110, // +10%: inside a 25% budget
		"BenchmarkPinned/slow-1":   200, // +100%: regression
		"BenchmarkUnpinned/slow-1": 900, // huge, but informational
	})
	regressions := compareBaseline(doc, base, 0.25, []string{"BenchmarkPinned"})
	if len(regressions) != 1 {
		t.Fatalf("got %d regressions (%v), want exactly 1", len(regressions), regressions)
	}
	if !strings.Contains(regressions[0], "BenchmarkPinned/slow-1") {
		t.Fatalf("regression names the wrong benchmark: %s", regressions[0])
	}
}

// TestThresholdGateFailsOnUnmatchedPin pins the drift guard: a pin that
// matches nothing in the run/baseline intersection is a failure, not a
// silent pass.
func TestThresholdGateFailsOnUnmatchedPin(t *testing.T) {
	base := writeBaseline(t, map[string]float64{"BenchmarkReal-1": 100})
	doc := resultDoc(map[string]float64{"BenchmarkReal-1": 100})
	regressions := compareBaseline(doc, base, 0.25, []string{"BenchmarkReal", "BenchmarkRenamedAway"})
	if len(regressions) != 1 || !strings.Contains(regressions[0], "BenchmarkRenamedAway") {
		t.Fatalf("unmatched pin not reported: %v", regressions)
	}
}

// TestThresholdGateOffStaysInformational pins that without a threshold (or
// without pins) nothing ever fails, however bad the numbers look.
func TestThresholdGateOffStaysInformational(t *testing.T) {
	base := writeBaseline(t, map[string]float64{"BenchmarkX-1": 100})
	doc := resultDoc(map[string]float64{"BenchmarkX-1": 10000})
	if got := compareBaseline(doc, base, 0, []string{"BenchmarkX"}); len(got) != 0 {
		t.Fatalf("threshold 0 still produced regressions: %v", got)
	}
	if got := compareBaseline(doc, base, 0.25, nil); len(got) != 0 {
		t.Fatalf("empty pin list still produced regressions: %v", got)
	}
}

// TestParsePins covers allowlist parsing.
func TestParsePins(t *testing.T) {
	got := parsePins(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("parsePins = %v", got)
	}
	if parsePins("") != nil {
		t.Fatal("empty pin string should parse to nil")
	}
}

// TestParseBenchLineStillParses guards the parser the gate sits on.
func TestParseBenchLineStillParses(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkFoo/bar-8   	 123	 4567 ns/op	 89 B/op")
	if !ok || res.Name != "BenchmarkFoo/bar-8" || res.Iterations != 123 {
		t.Fatalf("parseBenchLine = %+v, %v", res, ok)
	}
	if res.Metrics["ns/op"] != 4567 || res.Metrics["B/op"] != 89 {
		t.Fatalf("metrics = %v", res.Metrics)
	}
}
