package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dssp"
	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/obs"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// psClient is what the worker loop needs from ps.Client and ps.ClusterClient.
type psClient interface {
	Pull() ([]*tensor.Tensor, int64, error)
	PushAndWait(grads []*tensor.Tensor, baseVersion int64, iteration int) error
	Done() error
	Traffic() (pushed, pulled int64)
	Close() error
}

// pushEvent is one push as the worker saw it leave, for the policy replay:
// who, and nanoseconds since the tracer's epoch (pointer-free, like spans).
type pushEvent struct {
	worker int
	at     int64
}

// tracer owns the traced repetition: a worker loop that mirrors
// dssp.RunWorker step for step with a span around every call into a layer,
// a meter on the connections it dials, and the inputs the calibrations
// replay afterwards.
type tracer struct {
	w      workload
	epoch  time.Time
	reg    *obs.Registry
	meter  *transport.Metrics
	recs   [workers]*recorder
	pushes [workers][]pushEvent

	// Worker 0's final gradient set and (cloned) pulled weights: the tensors
	// the calibrations run on. Written by that worker's goroutine, read
	// after the repetition's WaitGroup.
	lastGrads []*tensor.Tensor
	lastParam []*tensor.Tensor
}

// spansPerIter is the root plus its eight children.
const spansPerIter = len(spanNames)

func newTracer(w workload, epochs [workers]int) *tracer {
	reg := obs.NewRegistry()
	t := &tracer{w: w, epoch: time.Now(), reg: reg, meter: transport.NewMetrics(reg)}
	for id := range t.recs {
		n := epochs[id] * w.itersPerEpoch()
		t.recs[id] = newRecorder(t.epoch, n*spansPerIter)
		t.pushes[id] = make([]pushEvent, 0, n)
	}
	return t
}

// modelSpec mirrors the public Model → architecture mapping for the two
// models the workloads use.
func modelSpec(m dssp.Model, d dssp.DatasetConfig) (nn.ModelSpec, error) {
	switch m {
	case dssp.ModelSmallMLP:
		return nn.SpecSmallMLP(d.ImageSize, 32, d.Classes), nil
	case dssp.ModelResNet8:
		return nn.SpecResNet(8, d.Classes), nil
	}
	return nn.ModelSpec{}, fmt.Errorf("bench: no spec for model %q", m)
}

// paramCount is the workload's model size in scalars.
func paramCount(w workload) int {
	spec, err := modelSpec(w.Model, w.Dataset)
	if err != nil {
		return 0
	}
	return spec.Build(rand.New(rand.NewSource(1))).ParamCount()
}

// trainShard mirrors RunWorker's data path: the synthetic train split, then
// this worker's partition of it. The workload table sets Noise and
// TestExamples explicitly, so no product-side defaulting is involved.
func trainShard(cfg dssp.WorkerConfig) (*data.Dataset, error) {
	d := cfg.Dataset
	flat := cfg.Model == dssp.ModelSmallMLP
	channels := 3
	if flat {
		channels = 1
	}
	full, err := data.Synthetic(data.SyntheticConfig{
		Examples: d.Examples + d.TestExamples, Classes: d.Classes, Channels: channels,
		Size: d.ImageSize, Noise: d.Noise, Flat: flat, Seed: d.Seed,
	})
	if err != nil {
		return nil, err
	}
	idx := make([]int, d.Examples)
	for i := range idx {
		idx[i] = i
	}
	return data.PartitionDataset(full.Subset(idx), cfg.WorkerID, cfg.Workers)
}

// connect mirrors RunWorker's three ways of reaching the parameter store.
func (t *tracer) connect(cfg dssp.WorkerConfig, ccfg compress.Config) (psClient, error) {
	dial := func(addr string) (transport.Conn, error) {
		return transport.DialWireMetered(addr, transport.WireBinary, t.meter)
	}
	if cfg.Cluster {
		return ps.NewClusterClient(dial, cfg.ServerAddr, cfg.WorkerID, ps.ClusterClientConfig{Compression: ccfg})
	}
	addr := cfg.ServerAddr
	if cfg.Tree {
		conn, err := dial(cfg.ServerAddr)
		if err != nil {
			return nil, err
		}
		layout, err := ps.FetchTreeLayout(conn)
		conn.Close()
		if err != nil {
			return nil, err
		}
		if a := layout.Covering(cfg.WorkerID); a != "" {
			addr = a
		}
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	client, err := ps.NewClientCompressed(conn, cfg.WorkerID, ccfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := client.Register(); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// runWorker is dssp.RunWorker's loop with spans. Anything RunWorker does per
// iteration outside a span (ZeroGrads, loop bookkeeping) lands in
// dssp.unaccounted_ms, which is the point of that row.
func (t *tracer) runWorker(cfg dssp.WorkerConfig) (*dssp.WorkerReport, error) {
	spec, err := modelSpec(cfg.Model, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	shard, err := trainShard(cfg)
	if err != nil {
		return nil, err
	}
	iter, err := data.NewBatchIterator(shard, cfg.BatchSize, cfg.Seed+int64(cfg.WorkerID)*1009)
	if err != nil {
		return nil, err
	}
	ccfg := codecConfig(cfg.Compression)
	if cfg.Compression.Codec == "" {
		ccfg.Codec = compress.Auto
	}
	client, err := t.connect(cfg, ccfg)
	if err != nil {
		return nil, fmt.Errorf("bench: worker %d connect: %w", cfg.WorkerID, err)
	}
	defer client.Close()

	replica := spec.Build(rand.New(rand.NewSource(cfg.Seed)))
	total := (shard.Len() + cfg.BatchSize - 1) / cfg.BatchSize * cfg.Epochs
	rec := t.recs[cfg.WorkerID]
	report := &dssp.WorkerReport{}

	var grads, params []*tensor.Tensor
	start := time.Now()
	for it := 0; it < total; it++ {
		root := rec.begin(spanIter, -1, it)

		s := rec.begin(spanPull, root, it)
		var version int64
		params, version, err = client.Pull()
		rec.end(s)
		if err != nil {
			return nil, err
		}

		s = rec.begin(spanSetParams, root, it)
		err = replica.SetParams(params)
		rec.end(s)
		if err != nil {
			return nil, err
		}

		s = rec.begin(spanNextBatch, root, it)
		x, labels := iter.Next()
		rec.end(s)

		replica.ZeroGrads()

		s = rec.begin(spanForward, root, it)
		report.FinalLoss, _ = replica.Loss(x, labels, true)
		rec.end(s)

		s = rec.begin(spanBackward, root, it)
		replica.Backward()
		rec.end(s)

		if cfg.Delay > 0 {
			s = rec.begin(spanDelay, root, it)
			time.Sleep(cfg.Delay)
			rec.end(s)
		}

		s = rec.begin(spanCloneGrads, root, it)
		grads = replica.CloneGrads()
		rec.end(s)

		t.pushes[cfg.WorkerID] = append(t.pushes[cfg.WorkerID], pushEvent{cfg.WorkerID, int64(time.Since(t.epoch))})
		s = rec.begin(spanPushWait, root, it)
		err = client.PushAndWait(grads, version, it)
		rec.end(s)
		if err != nil {
			return nil, err
		}

		rec.end(root)
	}
	if err := client.Done(); err != nil {
		return nil, err
	}
	report.Iterations = total
	report.Duration = time.Since(start)
	report.PushedBytes, report.PulledBytes = client.Traffic()

	if cfg.WorkerID == 0 {
		t.lastGrads, t.lastParam = grads, cloneAll(params)
	}
	return report, nil
}

// write dumps the spans of both workers.
func (t *tracer) write(path string) error {
	return writeTrace(path, [][]span{t.recs[0].spans, t.recs[1].spans})
}

const nsPerMs = 1e6

// layers turns the recorded spans, the servers' registry snapshots (root
// first), the relay's snapshot (nil without one) and the calibrations into
// the per-layer metrics. tailPct is the percentile the "_p99" metrics
// actually carry (lower when there are too few samples).
func (t *tracer) layers(snaps []map[string]float64, relay map[string]float64, foldDepth float64) (out map[string]float64, tailPct float64) {
	selfByName := make(map[string]int64)
	var roots, pulls, waits []float64
	for _, rec := range t.recs {
		self, r := budget(rec.spans)
		for name, ns := range self {
			selfByName[name] += ns
		}
		roots = append(roots, r...)
		pulls = append(pulls, durationsOf(rec.spans, spanPull)...)
		waits = append(waits, durationsOf(rec.spans, spanPushWait)...)
	}
	iters := float64(len(roots))
	out = make(map[string]float64)
	if iters == 0 {
		return out, 0
	}
	// A span named x is reported as the per-layer metric x_ms: its mean self
	// time per worker iteration.
	for name, ns := range selfByName {
		out[name+"_ms"] = float64(ns) / iters / nsPerMs
	}
	tailPct = tailPercentile(len(roots))
	out["dssp.iter_ms_mean"] = mean(roots) / nsPerMs
	out["dssp.iter_ms_p50"] = median(roots) / nsPerMs
	out["dssp.iter_ms_p99"] = percentile(roots, tailPct) / nsPerMs
	out["ps.pull_ms_p50"] = median(pulls) / nsPerMs
	out["ps.pull_ms_p99"] = percentile(pulls, tailPct) / nsPerMs
	out["ps.push_wait_ms_p50"] = median(waits) / nsPerMs
	out["ps.push_wait_ms_p99"] = percentile(waits, tailPct) / nsPerMs

	// Server side: existing series, as the mean per observation.
	out["ps.server_decode_ms"] = 1000 * seriesMean(snaps, "dssp_push_phase_seconds", `{phase="decode"}`)
	out["ps.server_policy_ms"] = 1000 * seriesMean(snaps, "dssp_push_phase_seconds", `{phase="policy"}`)
	out["ps.server_pull_ms"] = 1000 * seriesMean(snaps, "dssp_pull_seconds", "")
	out["ps.release_lag_ms"] = 1000 * seriesMean(snaps, "dssp_release_lag_seconds", "")
	out["ps.store_apply_ms"] = 1000 * seriesMean(snaps, "dssp_store_apply_seconds", "")
	out["ps.store_clone_ms"] = 1000 * seriesMean(snaps, "dssp_store_clone_seconds", "")
	out["ps.store_apply_batch"] = seriesMean(snaps, "dssp_store_apply_batch_size", "")
	sum := func(name string) float64 {
		total := 0.0
		for _, s := range snaps {
			total += s[name]
		}
		return total
	}
	out["ps.store_clone_reuse_share"] = share(sum("dssp_store_clone_reuse_total"), sum("dssp_store_clone_alloc_total"))

	out["ps.relay_fold_depth"] = foldDepth
	out["ps.root_push_frames_per_iter"] = snaps[0][`dssp_transport_frames_total{dir="recv",type="Push"}`] / iters
	if relay != nil {
		full, rest := 0.0, 0.0
		for name, v := range relay {
			switch {
			case name == `dssp_relay_flushes_total{reason="full"}`:
				full = v
			case strings.HasPrefix(name, "dssp_relay_flushes_total{"):
				rest += v
			}
		}
		out["ps.relay_flush_full_share"] = share(full, rest)
	}

	var frames, bytes float64
	for name, v := range t.reg.Snapshot() {
		switch {
		case strings.HasPrefix(name, "dssp_transport_frames_total{"):
			frames += v
		case strings.HasPrefix(name, "dssp_transport_bytes_total{"):
			bytes += v
		}
	}
	out["transport.frames_per_iter"] = frames / iters
	out["transport.bytes_per_iter"] = bytes / iters

	t.calibrate(out)

	// What one iteration spent in the two RPCs that no layer timed: wire,
	// kernel, scheduling and — on hetero-dssp — the policy's deliberate wait.
	// Server phases are summed per iteration as if serial, so a negative
	// value means shard appliers overlapped.
	perIter := func(family, labels string) float64 {
		return 1000 * sum(family+"_sum"+labels) / iters
	}
	out["ps.rpc_residual_ms"] = out["ps.pull_ms"] + out["ps.push_wait_ms"] -
		(out["compress.encode_ms"] + out["compress.decode_ms"] +
			perIter("dssp_push_phase_seconds", `{phase="decode"}`) +
			perIter("dssp_push_phase_seconds", `{phase="policy"}`) +
			perIter("dssp_pull_seconds", "") +
			perIter("dssp_release_lag_seconds", "") +
			perIter("dssp_store_apply_seconds", ""))
	return out, tailPct
}

// share is a ÷ (a + b), 0 when both are 0.
func share(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// mergedPushes is both workers' pushes in the order they left.
func (t *tracer) mergedPushes() []pushEvent {
	all := append(append([]pushEvent(nil), t.pushes[0]...), t.pushes[1]...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all
}

// replayPolicy feeds the recorded push order to a fresh instance of the
// workload's policy and to a stand-alone controller, timing each decision.
func (t *tracer) replayPolicy(out map[string]float64) {
	pushes := t.mergedPushes()
	s := t.w.sync()
	policy, err := core.NewPolicy(core.PolicyConfig{Paradigm: s.Paradigm, Staleness: s.Staleness, Range: s.Range, Workers: workers})
	if err != nil || len(pushes) == 0 {
		return
	}
	start := time.Now()
	for _, p := range pushes {
		policy.OnPush(core.WorkerID(p.worker), t.epoch.Add(time.Duration(p.at)))
	}
	onPush := time.Since(start)

	ctl := core.MustNewController(workers, s.Range)
	clocks := make([]int, workers)
	start = time.Now()
	for _, p := range pushes {
		clocks[p.worker]++
		ctl.Observe(core.WorkerID(p.worker), t.epoch.Add(time.Duration(p.at)))
		ctl.ExtraIterations(core.WorkerID(p.worker), clocks)
	}
	decide := time.Since(start)

	// sinceOwn[w] counts the pushes other workers landed since w's previous
	// push: the staleness w's next gradient will be applied with.
	var sinceOwn [workers]int
	maxStale := 0
	for _, p := range pushes {
		maxStale = max(maxStale, sinceOwn[p.worker])
		for w := range sinceOwn {
			sinceOwn[w]++
		}
		sinceOwn[p.worker] = 0
	}
	n := float64(len(pushes))
	out["core.on_push_us"] = float64(onPush.Nanoseconds()) / n / 1000
	out["core.controller_decide_us"] = float64(decide.Nanoseconds()) / n / 1000
	out["core.max_staleness"] = float64(maxStale)
}
