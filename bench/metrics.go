package main

// metricDef names one reported number. The names are the benchmark's
// contract: BENCHMARK.json lists exactly these, and later issues quote them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// boundOn is the bound -compare holds the metric to on one workload: the
// tighter per-workload bound where there is one, else BENCHMARK.json's.
func (m metricDef) boundOn(workload string) float64 {
	if b, ok := tightBounds[m.Name][workload]; ok {
		return b
	}
	return m.Bound
}

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"iters_per_s", "iterations/s", "higher", 0.20},
	{"cpu_ms_per_iter", "ms", "lower", 0.20},
	{"wire_bytes_per_iter", "bytes", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"mean_staleness", "iterations", "lower", 0.10},
}

// tightBounds holds -compare to less than BENCHMARK.json's bound on the
// workloads that repeat well enough. BENCHMARK.json carries one bound per
// metric, which has to be three times the noisiest workload's spread; each
// entry here is at least three times the widest interquartile spread seen on
// that workload (README.md, "Observed run-to-run spread").
var tightBounds = map[string]map[string]float64{
	"iters_per_s": {
		"flat-compute": 0.10, "flat-comm": 0.15, "flat-comm-fp16": 0.15, "group-comm": 0.15, "hetero-dssp": 0.03,
	},
	"cpu_ms_per_iter": {
		"flat-compute": 0.10, "flat-comm": 0.15, "flat-comm-fp16": 0.15, "group-comm": 0.15,
	},
}

// floors are worsenings, in the metric's unit, too small to count whatever
// share of the median they are.
var floors = map[string]float64{"setup_s": 0.05}

// budgetRows are the per-layer metrics that partition a worker iteration:
// their values sum to dssp.iter_ms_mean.
var budgetRows = []string{
	"ps.pull_ms", "nn.set_params_ms", "data.next_batch_ms", "nn.forward_ms", "nn.backward_ms",
	"dssp.delay_ms", "nn.clone_grads_ms", "ps.push_wait_ms", "dssp.unaccounted_ms",
}

// perLayer is what the traced pass and the calibrations report, grouped by
// module. All are mean ms per worker iteration unless the name says
// otherwise.
var perLayer = []metricDef{
	{"dssp.iter_ms_mean", "ms", "lower", 0},
	{"dssp.iter_ms_p50", "ms", "lower", 0},
	{"dssp.iter_ms_p99", "ms", "lower", 0},
	{"dssp.delay_ms", "ms", "lower", 0},
	{"dssp.unaccounted_ms", "ms", "lower", 0},
	{"data.next_batch_ms", "ms", "lower", 0},
	{"nn.set_params_ms", "ms", "lower", 0},
	{"nn.forward_ms", "ms", "lower", 0},
	{"nn.backward_ms", "ms", "lower", 0},
	{"nn.clone_grads_ms", "ms", "lower", 0},
	{"ps.pull_ms", "ms", "lower", 0},
	{"ps.pull_ms_p50", "ms", "lower", 0},
	{"ps.pull_ms_p99", "ms", "lower", 0},
	{"ps.push_wait_ms", "ms", "lower", 0},
	{"ps.push_wait_ms_p50", "ms", "lower", 0},
	{"ps.push_wait_ms_p99", "ms", "lower", 0},
	{"ps.server_decode_ms", "ms", "lower", 0},
	{"ps.server_policy_ms", "ms", "lower", 0},
	{"ps.server_pull_ms", "ms", "lower", 0},
	{"ps.release_lag_ms", "ms", "lower", 0},
	{"ps.store_apply_ms", "ms", "lower", 0},
	{"ps.store_clone_ms", "ms", "lower", 0},
	{"ps.store_apply_batch", "count", "higher", 0},
	{"ps.store_clone_reuse_share", "share", "higher", 0},
	{"ps.store_apply_solo_ms", "ms", "lower", 0},
	{"ps.rpc_residual_ms", "ms", "lower", 0},
	{"ps.relay_fold_depth", "count", "higher", 0},
	{"ps.root_push_frames_per_iter", "count", "lower", 0},
	{"ps.relay_flush_full_share", "share", "higher", 0},
	{"compress.encode_ms", "ms", "lower", 0},
	{"compress.decode_ms", "ms", "lower", 0},
	{"compress.ratio", "ratio", "higher", 0},
	{"transport.push_frame_ms", "ms", "lower", 0},
	{"transport.weights_frame_ms", "ms", "lower", 0},
	{"transport.small_rtt_us", "us", "lower", 0},
	{"transport.frames_per_iter", "count", "lower", 0},
	{"transport.bytes_per_iter", "bytes", "lower", 0},
	{"core.on_push_us", "us", "lower", 0},
	{"core.controller_decide_us", "us", "lower", 0},
	{"core.max_staleness", "iterations", "lower", 0},
	{"optimizer.step_ms", "ms", "lower", 0},
	{"tensor.matmul128_ms", "ms", "lower", 0},
	{"runtime.alloc_kb_per_iter", "KB", "lower", 0},
	{"runtime.mallocs_per_iter", "count", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}
