// Command bench is the repository's end-to-end iteration benchmark: six
// workloads of two workers training over loopback TCP against the product's
// own public entry points (dssp.Serve, dssp.ServeRelay, dssp.RunWorker), six
// end-to-end metrics measured with tracing off, and a traced pass that
// budgets one worker iteration layer by layer. See README.md.
//
//	go run -C bench . -seed 1                      # everything, ≈2.5 min
//	go run -C bench . -workload flat-comm -trace 0 # one workload, end to end only
//	go run -C bench . -compare a.json b.json       # two -out files against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// Passes selectable with -trace.
const (
	traceBoth = -1 // 5 untraced repetitions + 1 traced
	traceOff  = 0  // 5 untraced repetitions: the end-to-end metrics
	traceOn   = 1  // 1 untraced + 1 traced repetition: the per-layer metrics
)

// repsPerRun splits -seconds into equal measurement windows, one per
// repetition, so a run's medians rest on five fresh processes. Five windows
// of 3 s repeat better on a shared two-core box than three of 5 s: a burst
// of interference spoils one window, and the median drops it.
const repsPerRun = 5

// runSeconds is BENCHMARK.json's run_seconds: five windows of 3 s.
const runSeconds = 15

func main() {
	seed := flag.Int64("seed", 1, "seeds dataset generation, model initialisation and batch order")
	name := flag.String("workload", "", "run one workload (default: all six)")
	// -seconds and -trace are not tuning knobs: the benchmark driver passes
	// both on every run (BENCHMARK.json's run_seconds, then 0 or 1), and
	// -compare refuses two summaries that differ in either.
	seconds := flag.Int("seconds", runSeconds, "measured seconds per workload and pass, split over 5 repetitions")
	trace := flag.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	out := flag.String("out", "", "also write the full machine-readable summary to this file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	child := flag.String("child", "", "internal: run one repetition described by this JSON and print its result")
	flag.Parse()

	switch {
	case *child != "":
		os.Exit(childMain(*child))
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *trace < traceBoth || *trace > traceOn {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace one of 0, 1")
		os.Exit(2)
	}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		if err := w.validate(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}

	sum := summary{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: *seed, Seconds: *seconds, Trace: *trace,
	}
	window := time.Duration(*seconds) * time.Second / repsPerRun
	for _, w := range selected {
		ws := measure(w, *seed, window, *trace, spawnRep)
		printWorkload(os.Stdout, ws)
		sum.Workloads = append(sum.Workloads, ws)
	}
	if *out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write -out:", err)
			os.Exit(1)
		}
	}
	line := sum.contractLine()
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
	if !line.Correct {
		os.Exit(1)
	}
}

// childMain runs one repetition in this process and prints its result as
// one JSON line.
func childMain(arg string) int {
	var cfg repConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad config:", err)
		return 2
	}
	res, err := runRep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// spawnRep runs one repetition in a fresh child process of this binary, so
// heap state and peak RSS never leak between repetitions. The child gets a
// hard deadline of three windows plus fixed slack for set-up and the traced
// pass's calibrations; past it the child is killed and the caller counts its
// whole quota as failed.
func spawnRep(cfg repConfig, window time.Duration) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	deadline := 3*window + 15*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cfg.SpawnedUnixNano = time.Now().UnixNano()
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 2 * time.Second // do not hang on a pipe a killed child left open
	stdout, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("repetition killed at its %v deadline", deadline)
	}
	if err != nil {
		return nil, fmt.Errorf("repetition process: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("repetition printed no result: %w", err)
	}
	return &res, nil
}

// traceDir is bench/out beside this source file, so the span dumps land in
// the one git-ignored place whatever directory the binary is started from.
func traceDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "out")
}

// measure runs one workload's repetitions and folds them into its summary.
// run executes a single repetition: spawnRep in production, runRep directly
// in the in-process smoke test.
func measure(w workload, seed int64, window time.Duration, trace int,
	run func(repConfig, time.Duration) (*repResult, error)) workloadSummary {

	untracedReps, tracedReps := repsPerRun, 1
	switch trace {
	case traceOff:
		tracedReps = 0
	case traceOn:
		untracedReps = 1
	}
	epochs := w.epochs(window)
	ws := workloadSummary{Name: w.Name, Why: w.Why, Correct: true}
	for id, e := range epochs {
		ws.Quota[id] = e * w.itersPerEpoch()
	}

	var untraced []*repResult
	var traced *repResult
	for rep := 0; rep < untracedReps+tracedReps; rep++ {
		cfg := repConfig{Workload: w.Name, Seed: seed, Epochs: epochs, Traced: rep >= untracedReps}
		if cfg.Traced {
			cfg.TraceOut = filepath.Join(traceDir(), "trace-"+w.Name+".json")
		}
		res, err := run(cfg, window)
		ws.Attempted += ws.Quota[0] + ws.Quota[1]
		if err != nil {
			ws.Failed += ws.Quota[0] + ws.Quota[1]
			ws.Failures = append(ws.Failures, fmt.Sprintf("rep %d: %v", rep, err))
			continue
		}
		ws.Failed += res.failed()
		for _, f := range res.Failures {
			ws.Failures = append(ws.Failures, fmt.Sprintf("rep %d: %s", rep, f))
		}
		if res.completed() == 0 {
			continue
		}
		if cfg.Traced {
			traced = res
		} else {
			untraced = append(untraced, res)
		}
	}
	ws.Correct = len(ws.Failures) == 0

	// collect gathers one number from every untraced repetition.
	collect := func(pick func(*repResult) float64) []float64 {
		xs := make([]float64, len(untraced))
		for i, r := range untraced {
			xs[i] = pick(r)
		}
		return xs
	}
	if trace != traceOn {
		ws.EndToEnd = make(map[string]stat)
		for _, m := range endToEnd {
			st := newStat(collect(func(r *repResult) float64 { return r.EndToEnd[m.Name] }), m)
			st.Bound, st.Floor = m.boundOn(w.Name), floors[m.Name]
			ws.EndToEnd[m.Name] = st
		}
	}
	if traced != nil {
		layers := traced.Layers
		for name := range traced.Runtime {
			// Allocation and GC are read off the untraced repetitions, so
			// span bookkeeping is not billed to the program.
			layers[name] = median(collect(func(r *repResult) float64 { return r.Runtime[name] }))
		}
		if base := median(collect(func(r *repResult) float64 { return r.EndToEnd["iters_per_s"] })); base > 0 {
			layers["trace.overhead_share"] = 1 - traced.EndToEnd["iters_per_s"]/base
		}
		ws.PerLayer = make(map[string]stat)
		for _, m := range perLayer {
			ws.PerLayer[m.Name] = newStat([]float64{layers[m.Name]}, m)
		}
		ws.TailPct = traced.TailPct
		ws.Untrusted = untrusted(layers)
	} else if trace != traceOff {
		ws.Correct = false
		ws.Failures = append(ws.Failures, "no traced repetition completed")
	}
	if len(untraced) == 0 {
		ws.Correct = false
		ws.Failures = append(ws.Failures, "no untraced repetition completed")
	}
	return ws
}
