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

// TestMedianOverRounds pins how make bench-gate's rounds merge: a benchmark
// keeps its first position across the rounds, and every metric is the median
// of the rounds that measured it — the middle one of an odd count, the mean
// of the middle two of an even one — and allocs/op also keeps its highest
// round as "max allocs/op".
func TestMedianOverRounds(t *testing.T) {
	var rounds []*Document
	for _, text := range []string{
		"BenchmarkA-2 10 500 ns/op 64 B/op 3 allocs/op\nBenchmarkB-2 10 70 ns/op\n",
		"BenchmarkA-2 20 900 ns/op 64 B/op 5 allocs/op\n",
		"BenchmarkB-2 30 90 ns/op\nBenchmarkA-2 30 300 ns/op 32 B/op 4 allocs/op\n",
	} {
		doc, err := parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, doc)
	}
	doc := median(rounds)
	if len(doc.Results) != 2 || doc.Results[0].Name != "BenchmarkA-2" || doc.Results[1].Name != "BenchmarkB-2" {
		t.Fatalf("results = %+v, want BenchmarkA-2 then BenchmarkB-2", doc.Results)
	}
	if a := doc.Results[0]; a.Iterations != 20 || a.Metrics["ns/op"] != 500 || a.Metrics["B/op"] != 64 ||
		a.Metrics["allocs/op"] != 4 || a.Metrics["max allocs/op"] != 5 {
		t.Fatalf("BenchmarkA-2 = %+v, want the medians 20 iterations, 500 ns/op, 64 B/op, 4 allocs/op and at most 5", a)
	}
	if _, ok := doc.Results[1].Metrics["max allocs/op"]; ok {
		t.Fatal("BenchmarkB-2 reports no allocs/op but was given a maximum")
	}
	if b := doc.Results[1]; b.Iterations != 20 || b.Metrics["ns/op"] != 80 {
		t.Fatalf("BenchmarkB-2 = %+v, want the mean of its two rounds' middle: 20 iterations, 80 ns/op", b)
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

// TestAllocsGateFailsAnyPinnedRise pins the allocs/op half of the gate: a
// pinned benchmark with one allocation more than its baseline fails however
// fast it ran, an equal count passes, a count inside the spread of a
// baseline whose rounds disagree passes and one above it fails, an unpinned
// rise and a rise in B/op stay informational, and a side that reports no
// allocs/op gates nothing.
func TestAllocsGateFailsAnyPinnedRise(t *testing.T) {
	metrics := func(ns, bytes, allocs float64) map[string]float64 {
		return map[string]float64{"ns/op": ns, "B/op": bytes, "allocs/op": allocs}
	}
	baseDoc := Document{Results: []Result{
		{Name: "BenchmarkPinned/more-1", Metrics: metrics(100, 1000, 44)},
		{Name: "BenchmarkPinned/same-1", Metrics: metrics(100, 1000, 44)},
		{Name: "BenchmarkPinned/nobase-1", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkPinned/spread-1", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 18, "max allocs/op": 22}},
		{Name: "BenchmarkPinned/above-1", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 18, "max allocs/op": 22}},
		{Name: "BenchmarkUnpinned/more-1", Metrics: metrics(100, 1000, 4)},
	}}
	blob, err := json.Marshal(baseDoc)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	doc := &Document{Results: []Result{
		{Name: "BenchmarkPinned/more-1", Metrics: metrics(90, 1000, 45)},
		{Name: "BenchmarkPinned/same-1", Metrics: metrics(100, 9000, 44)},
		{Name: "BenchmarkPinned/nobase-1", Metrics: metrics(100, 1000, 60)},
		{Name: "BenchmarkPinned/spread-1", Metrics: metrics(100, 1000, 21)},
		{Name: "BenchmarkPinned/above-1", Metrics: metrics(100, 1000, 23)},
		{Name: "BenchmarkUnpinned/more-1", Metrics: metrics(100, 1000, 40)},
	}}
	regressions := compareBaseline(doc, base, 0.25, []string{"BenchmarkPinned"})
	if len(regressions) != 2 || !strings.Contains(regressions[0], "BenchmarkPinned/more-1") ||
		!strings.Contains(regressions[1], "BenchmarkPinned/above-1") || !strings.Contains(regressions[0], "allocs/op") {
		t.Fatalf("regressions %v, want exactly BenchmarkPinned/more-1's and /above-1's allocs/op", regressions)
	}
	if got := compareBaseline(doc, base, 0, []string{"BenchmarkPinned"}); len(got) != 0 {
		t.Fatalf("threshold 0 still gated allocs/op: %v", got)
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

// TestCommitLine pins where a document's commit comes from: the hash of a
// "commit:" line in the input, which make bench-baseline writes first, kept
// by the median over rounds from the first round.
func TestCommitLine(t *testing.T) {
	var rounds []*Document
	for _, text := range []string{
		"commit: 0123abc\ngoos: linux\nBenchmarkA-2 10 500 ns/op\n",
		"BenchmarkA-2 10 700 ns/op\n",
	} {
		doc, err := parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, doc)
	}
	if rounds[0].Commit != "0123abc" || rounds[1].Commit != "" {
		t.Fatalf("commits = %q, %q, want 0123abc and none", rounds[0].Commit, rounds[1].Commit)
	}
	if doc := median(rounds); doc.Commit != "0123abc" {
		t.Fatalf("median commit = %q, want the first round's 0123abc", doc.Commit)
	}
}
