// Command benchjson converts `go test -bench` text output into a stable
// JSON document so benchmark trajectories can accumulate as CI artifacts
// (BENCH_*.json) and be diffed across commits.
//
//	go test -run '^$' -bench=. ./... | go run ./cmd/benchjson -out BENCH_smoke.json
//
// Non-benchmark lines (package headers, PASS/ok trailers) are ignored, so
// the raw `go test` stream can be piped in unfiltered. A benchmark that
// appears more than once in the input (a pinned benchmark re-measured and
// appended to a full pass) is written once, with its last measurement. The
// document's context records nproc, GOMAXPROCS and the Go version of the
// machine that wrote it, since ns/op from boxes that differ in those do not
// compare.
//
// With -baseline the document is compared against a previous one. By
// default the comparison is informational; adding -threshold and -pin turns
// it into a regression gate for an allowlisted set of benchmarks:
//
//	benchjson -in bench.txt -out BENCH.json -baseline BENCH_baseline.json \
//	    -threshold 0.25 -pin BenchmarkStoreConcurrentPushPull/sharded,BenchmarkWireEncode
//
// exits non-zero when any pinned benchmark's ns/op regressed by more than
// 25% against the baseline, or its allocs/op rose above every baseline
// round's (where both report it: most allocation counts repeat exactly, so
// one more is a change, not noise); every other benchmark, and B/op, stays
// informational.
//
// -in takes several files, comma-separated, as the rounds of one
// measurement: each benchmark is written with the median of every metric
// over the rounds it appears in, and the highest allocs/op of any round as
// "max allocs/op". make bench-gate measures the pins of the
// baseline commit and of the working tree in alternating rounds and gates
// the ratio of the two medians:
//
//	benchjson -in base-1.txt,base-2.txt,base-3.txt -out BENCH_gate_base.json
//	benchjson -in head-1.txt,head-2.txt,head-3.txt -out BENCH_pinned.json \
//	    -baseline BENCH_gate_base.json -threshold 0.25 -pin ...
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement: the benchmark's full name (including
// sub-benchmark path and the -cpu suffix go test appends), its iteration
// count, and every reported metric keyed by unit (ns/op, B/op, allocs/op,
// plus custom b.ReportMetric units such as wire-B/op).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Document is the file layout: context lines go test printed (goos, goarch,
// pkg, cpu) plus the writer's nproc, gomaxprocs and go version, followed by
// the measurements, one per benchmark name. Commit is the hash of a
// "commit: <hash>" line in the input, which make bench-baseline writes
// first: the commit the recorded numbers were measured at, which make
// bench-gate builds and measures again.
type Document struct {
	Commit  string            `json:"commit,omitempty"`
	Context map[string]string `json:"context,omitempty"`
	Results []Result          `json:"results"`
}

func main() {
	in := flag.String("in", "", "bench output file to read, or several, comma-separated, each benchmark written with its median over them (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON to compare ns/op against (informational unless -threshold gates it)")
	threshold := flag.Float64("threshold", 0, "fail (exit 1) when a pinned benchmark's ns/op regresses by more than this fraction vs -baseline (e.g. 0.25 = 25%), or its allocs/op rises at all; 0 keeps the comparison informational")
	pinned := flag.String("pin", "", "comma-separated benchmark name prefixes the -threshold gate applies to; all other benchmarks stay informational")
	flag.Parse()

	var rounds []*Document
	for _, path := range strings.Split(*in, ",") {
		r := io.Reader(os.Stdin)
		if path != "" {
			f, err := os.Open(path)
			if err != nil {
				log.Fatalf("benchjson: %v", err)
			}
			defer f.Close()
			r = f
		}
		doc, err := parse(r)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		rounds = append(rounds, doc)
	}
	doc := median(rounds)
	if len(doc.Results) == 0 {
		log.Fatal("benchjson: no benchmark lines found in input")
	}
	stampEnvironment(doc)

	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		fmt.Printf("benchjson: wrote %d results to %s\n", len(doc.Results), *out)
	}
	if *baseline != "" {
		regressions := compareBaseline(doc, *baseline, *threshold, parsePins(*pinned))
		if len(regressions) > 0 {
			for _, line := range regressions {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s\n", line)
			}
			os.Exit(1)
		}
	}
}

// parsePins splits the -pin allowlist into cleaned, non-empty prefixes.
func parsePins(s string) []string {
	var pins []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pins = append(pins, p)
		}
	}
	return pins
}

// pinnedName reports whether a benchmark name falls under the -pin
// allowlist. Prefix matching lets one pin cover a sub-benchmark family
// (`BenchmarkStoreConcurrentPushPull/sharded` pins every worker count).
func pinnedName(name string, pins []string) bool {
	for _, p := range pins {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// compareBaseline prints an ns/op comparison of doc against a previously
// written baseline document and returns the threshold violations. Without a
// threshold (or pins) it never reports any: smoke runs on shared CI hardware
// are noisy, and the perf trajectory is a record, not a merge gate. With
// -threshold and -pin set, the small allowlisted set of macro benchmarks is
// gated — a pinned benchmark whose ns/op regressed by more than the
// threshold fraction, or whose allocs/op is above the baseline's highest
// round ("max allocs/op"; a single-round baseline's allocs/op), is returned
// for the caller to fail on, while everything off the allowlist
// stays informational. Missing files or unknown benchmarks just shrink the
// table.
func compareBaseline(doc *Document, path string, threshold float64, pins []string) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("benchjson: no baseline comparison (%v)\n", err)
		return nil
	}
	var base Document
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Printf("benchjson: no baseline comparison (%v)\n", err)
		return nil
	}
	baseNs := make(map[string]float64, len(base.Results))
	baseAllocs := make(map[string]float64, len(base.Results))
	for _, r := range base.Results {
		if ns, ok := r.Metrics["ns/op"]; ok && ns > 0 {
			baseNs[r.Name] = ns
		}
		if allocs, ok := r.Metrics["max allocs/op"]; ok {
			baseAllocs[r.Name] = allocs
		} else if allocs, ok := r.Metrics["allocs/op"]; ok {
			baseAllocs[r.Name] = allocs
		}
	}
	gated := threshold > 0 && len(pins) > 0
	mode := "informational"
	if gated {
		mode = fmt.Sprintf("threshold %.0f%% on %d pins", threshold*100, len(pins))
	}
	if base.Commit != "" {
		path += " (commit " + base.Commit + ")"
	}
	fmt.Printf("benchjson: comparison against baseline %s (%s)\n", path, mode)
	compared := 0
	pinMatched := make(map[string]bool, len(pins))
	var regressions []string
	for _, r := range doc.Results {
		ns, ok := r.Metrics["ns/op"]
		old, okBase := baseNs[r.Name]
		if !ok || !okBase || ns <= 0 {
			continue
		}
		compared++
		ratio := ns / old
		pinnedHere := gated && pinnedName(r.Name, pins)
		if gated {
			for _, p := range pins {
				if strings.HasPrefix(r.Name, p) {
					pinMatched[p] = true
				}
			}
		}
		allocs, okAllocs := r.Metrics["allocs/op"]
		oldAllocs, okBaseAllocs := baseAllocs[r.Name]
		marker := ""
		switch {
		case pinnedHere && okAllocs && okBaseAllocs && allocs > oldAllocs:
			marker = "  <-- ALLOCS (pinned)"
			regressions = append(regressions, fmt.Sprintf("%s: %g allocs/op vs baseline at most %g",
				r.Name, allocs, oldAllocs))
		case pinnedHere && ratio > 1+threshold:
			marker = "  <-- REGRESSION (pinned)"
			regressions = append(regressions, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx allowed)",
				r.Name, ns, old, ratio, 1+threshold))
		case ratio >= 1.5:
			marker = "  <-- slower"
		case ratio <= 0.67:
			marker = "  <-- faster"
		}
		if pinnedHere && marker == "" {
			marker = "  (pinned)"
		}
		fmt.Printf("  %-70s %12.0f ns/op  baseline %12.0f  ratio %.2fx%s\n", r.Name, ns, old, ratio, marker)
	}
	// A pin that gated nothing is itself a failure: a renamed or dropped
	// benchmark (or a -bench pattern drifting out of sync with the
	// allowlist) must not silently un-gate the exact measurement the gate
	// exists to protect.
	if gated {
		for _, p := range pins {
			if !pinMatched[p] {
				regressions = append(regressions, fmt.Sprintf(
					"pin %q matched no benchmark present in both the run and the baseline", p))
			}
		}
	}
	fmt.Printf("benchjson: compared %d of %d benchmarks against %d baseline entries\n",
		compared, len(doc.Results), len(baseNs))
	return regressions
}

// stampEnvironment records what the benchmark text does not say about the
// machine: go test prints the CPU model but not how many of them the run
// could use, nor the toolchain.
func stampEnvironment(doc *Document) {
	doc.Context["nproc"] = strconv.Itoa(runtime.NumCPU())
	doc.Context["gomaxprocs"] = strconv.Itoa(runtime.GOMAXPROCS(0))
	doc.Context["go"] = runtime.Version()
}

// parse scans go test output for benchmark result lines and context headers.
// A name measured more than once keeps its first position and its last
// measurement.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{Context: map[string]string{}, Results: nil}
	index := map[string]int{}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if v, ok := strings.CutPrefix(line, "commit:"); ok {
			doc.Commit = strings.TrimSpace(v)
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				// Later packages overwrite pkg; keep the first for a stable
				// document and note multiplicity instead.
				if _, seen := doc.Context[key]; !seen {
					doc.Context[key] = strings.TrimSpace(v)
				}
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if i, seen := index[res.Name]; seen {
			doc.Results[i] = res
			continue
		}
		index[res.Name] = len(doc.Results)
		doc.Results = append(doc.Results, res)
	}
	return doc, scanner.Err()
}

// median merges the rounds of one measurement: every benchmark, in the
// order it first appears, with the median of each metric and of the
// iteration count over the rounds that measured it (the mean of the middle
// two where they are even), the highest allocs/op of those rounds as "max
// allocs/op", and the first round's commit and context. Most pins read one
// allocation count in every round, so there the maximum is the median; a
// pin whose count moves from round to round (a ResNet-8 iteration read
// 13-22) is gated against the top of its spread instead of flaking.
func median(rounds []*Document) *Document {
	if len(rounds) == 1 {
		return rounds[0]
	}
	doc := &Document{Commit: rounds[0].Commit, Context: rounds[0].Context}
	index := map[string]int{}
	var runs [][]Result
	for _, round := range rounds {
		for _, r := range round.Results {
			i, seen := index[r.Name]
			if !seen {
				i = len(runs)
				index[r.Name] = i
				runs = append(runs, nil)
			}
			runs[i] = append(runs[i], r)
		}
	}
	for _, rs := range runs {
		values := map[string][]float64{}
		iters := make([]float64, len(rs))
		for j, r := range rs {
			iters[j] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		res := Result{Name: rs[0].Name, Iterations: int64(middle(iters)), Metrics: map[string]float64{}}
		for unit, vs := range values {
			res.Metrics[unit] = middle(vs)
		}
		if allocs := values["allocs/op"]; len(allocs) > 0 {
			res.Metrics["max allocs/op"] = allocs[len(allocs)-1] // middle sorted them
		}
		doc.Results = append(doc.Results, res)
	}
	return doc
}

// middle returns the median of vs, which it sorts.
func middle(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBenchLine parses one "BenchmarkX-8  20  123 ns/op  456 B/op" line.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	// Need at least name, iterations and one value/unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = value
	}
	return res, true
}
