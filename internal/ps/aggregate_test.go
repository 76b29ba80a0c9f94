package ps

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dssp/internal/optimizer"
	"dssp/internal/tensor"
)

// timeoutChan returns a channel that closes after a generous deadline, for
// bounding WaitApplied in tests that would otherwise hang on a bug.
func timeoutChan(t *testing.T) <-chan struct{} {
	t.Helper()
	ch := make(chan struct{})
	timer := time.AfterFunc(5*time.Second, func() { close(ch) })
	t.Cleanup(func() { timer.Stop() })
	return ch
}

// refTrimmedMean is the straight-line reference implementation the aggregator
// is checked against: per coordinate, sort the finite values, drop
// ceil(trim*m) from each side (falling back to the median when that leaves
// nothing), average, and scale by the batch size.
func refTrimmedMean(batch [][]float32, trim float64, k int) []float64 {
	n := len(batch[0])
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		var vals []float64
		for _, push := range batch {
			v := float64(push[j])
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		out[j] = float64(k) * refStatistic(vals, trim, false)
	}
	return out
}

func refMedian(vals []float64) float64 {
	m := len(vals)
	if m == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	if m%2 == 1 {
		return sorted[m/2]
	}
	return (sorted[m/2-1] + sorted[m/2]) / 2
}

func refStatistic(vals []float64, trim float64, median bool) float64 {
	m := len(vals)
	if m == 0 {
		return 0
	}
	if median {
		return refMedian(vals)
	}
	t := int(math.Ceil(trim * float64(m)))
	if 2*t >= m {
		return refMedian(vals)
	}
	sorted := append([]float64(nil), vals...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	sum := 0.0
	for _, v := range sorted[t : m-t] {
		sum += v
	}
	return sum / float64(m-2*t)
}

// batchOf wraps raw coordinate slices as single-tensor gradient slices.
func batchOf(pushes ...[]float32) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(pushes))
	for i, p := range pushes {
		out[i] = []*tensor.Tensor{tensor.FromSlice(append([]float32(nil), p...), len(p))}
	}
	return out
}

func TestAggregatorConfigValidate(t *testing.T) {
	cases := []struct {
		cfg AggregatorConfig
		ok  bool
	}{
		{AggregatorConfig{}, true},
		{AggregatorConfig{Kind: AggSum}, true},
		{AggregatorConfig{Kind: AggTrimmedMean}, true},
		{AggregatorConfig{Kind: AggMedian}, true},
		{AggregatorConfig{Kind: AggClipped, ClipNorm: 1.5}, true},
		{AggregatorConfig{Kind: AggClipped}, false}, // needs clip norm
		{AggregatorConfig{Kind: "krum"}, false},     // unknown kind
	}
	for _, c := range cases {
		err := c.cfg.Normalized().Validate()
		if c.ok && err != nil {
			t.Errorf("%+v: unexpected error %v", c.cfg, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%+v: validation passed, want error", c.cfg)
		}
	}
}

func TestTrimmedMeanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		n := 1 + rng.Intn(17)
		raw := make([][]float32, k)
		for i := range raw {
			raw[i] = make([]float32, n)
			for j := range raw[i] {
				raw[i][j] = float32(rng.NormFloat64() * 3)
			}
		}
		agg := newAggregator(AggregatorConfig{Kind: AggTrimmedMean}.Normalized())
		got := agg.combine(batchOf(raw...))[0].Data()
		want := refTrimmedMean(raw, DefaultTrim, k)
		for j := range want {
			if math.Abs(float64(got[j])-want[j]) > 1e-4 {
				t.Fatalf("trial %d coord %d: trimmed mean %g, reference %g", trial, j, got[j], want[j])
			}
		}
	}
}

func TestMedianMatchesReference(t *testing.T) {
	raw := [][]float32{
		{1, -4, 2.5, 0},
		{2, -3, 100, 0},
		{3, -2, -100, 1},
		{4, -1, 2.75, -1},
		{5, 0, 2.25, 0},
	}
	agg := newAggregator(AggregatorConfig{Kind: AggMedian}.Normalized())
	got := agg.combine(batchOf(raw...))[0].Data()
	for j := 0; j < len(raw[0]); j++ {
		var vals []float64
		for _, p := range raw {
			vals = append(vals, float64(p[j]))
		}
		want := 5 * refMedian(vals)
		if math.Abs(float64(got[j])-want) > 1e-5 {
			t.Fatalf("coord %d: median %g, reference %g", j, got[j], want)
		}
	}
}

// TestTrimmedMeanRejectsOutlier is the defense property in miniature: one
// attacker scaling its gradient 100x inside a window of four must not move
// the aggregate far from the honest trimmed mean.
func TestTrimmedMeanRejectsOutlier(t *testing.T) {
	honest := []float32{1, -1, 0.5}
	attack := []float32{100, -100, 50}
	batch := batchOf(honest, honest, honest, attack)
	agg := newAggregator(AggregatorConfig{Kind: AggTrimmedMean}.Normalized())
	got := agg.combine(batch)[0].Data()
	for j, h := range honest {
		want := 4 * float64(h) // all-honest trimmed mean scaled by the window
		if math.Abs(float64(got[j])-want) > 1e-4 {
			t.Fatalf("coord %d: %g leaked attacker influence (want %g)", j, got[j], want)
		}
	}

	// Plain sum, by contrast, is dominated by the attacker.
	sum := 0.0
	for _, p := range batchOf(honest, honest, honest, attack) {
		sum += float64(p[0].Data()[0])
	}
	if math.Abs(sum) < 50 {
		t.Fatalf("sum baseline unexpectedly robust: %g", sum)
	}
}

// TestRobustAggregatorsRejectNaN checks the NaN/Inf screening: poisoned
// coordinates must be excluded rather than propagated into the weights.
func TestRobustAggregatorsRejectNaN(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	honest := []float32{1, 2, -3}
	poisoned := []float32{nan, inf, 4}
	for _, kind := range []string{AggTrimmedMean, AggMedian} {
		agg := newAggregator(AggregatorConfig{Kind: kind}.Normalized())
		got := agg.combine(batchOf(honest, honest, poisoned))[0].Data()
		for j, v := range got {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s coord %d: non-finite aggregate %g", kind, j, v)
			}
		}
		// Coordinates 0 and 1 must come from the honest pushes alone.
		for j := 0; j < 2; j++ {
			want := 3 * float64(honest[j]) // median of {h, h} = h, scaled by k=3
			if math.Abs(float64(got[j])-want) > 1e-5 {
				t.Fatalf("%s coord %d: %g, want %g from honest values", kind, j, got[j], want)
			}
		}
	}

	// Clipped sum drops whole non-finite tensors.
	agg := newAggregator(AggregatorConfig{Kind: AggClipped, ClipNorm: 1000}.Normalized())
	got := agg.combine(batchOf(honest, poisoned))[0].Data()
	for j, v := range got {
		if math.Abs(float64(v)-float64(honest[j])) > 1e-5 {
			t.Fatalf("clipped coord %d: %g, want honest-only %g", j, v, honest[j])
		}
	}
}

func TestClippedSumCapsNorm(t *testing.T) {
	big := []float32{30, 40} // L2 norm 50
	agg := newAggregator(AggregatorConfig{Kind: AggClipped, ClipNorm: 5}.Normalized())
	got := agg.combine(batchOf(big))[0].Data()
	norm := math.Hypot(float64(got[0]), float64(got[1]))
	if math.Abs(norm-5) > 1e-4 {
		t.Fatalf("clipped norm %g, want 5", norm)
	}
	// Direction preserved.
	if got[0] <= 0 || got[1] <= 0 || math.Abs(float64(got[1]/got[0])-40.0/30.0) > 1e-4 {
		t.Fatalf("clipping changed direction: %v", got)
	}
	// Under the cap, untouched.
	small := []float32{0.3, 0.4}
	got = agg.combine(batchOf(small))[0].Data()
	if got[0] != 0.3 || got[1] != 0.4 {
		t.Fatalf("clipping modified an under-cap tensor: %v", got)
	}
}

// TestStoreWindowedAggregation drives the full pipeline: a store configured
// with trimmed-mean/window-3 must hold pushes until the window fills, apply
// one robust step, and advance the version by the window size.
func TestStoreWindowedAggregation(t *testing.T) {
	params := tensor.FromSlice([]float32{0, 0}, 2)
	st, err := NewStoreSharded([]*tensor.Tensor{params}, optimizer.NewSGD(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetAggregator(AggregatorConfig{Kind: AggTrimmedMean}, 3); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	push := func(a, b float32) int64 {
		ticket, err := st.EnqueueApply([]*tensor.Tensor{tensor.FromSlice([]float32{a, b}, 2)})
		if err != nil {
			t.Fatal(err)
		}
		return ticket
	}
	push(1, 10)
	push(1, 10)
	t3 := push(100, -100) // the attacker; trimmed away per coordinate
	st.WaitApplied(t3, nil)
	if v := st.Version(); v != 3 {
		t.Fatalf("version %d after a window of 3, want 3", v)
	}
	snap, _ := st.Snapshot()
	got := snap[0].Data()
	// SGD lr=1: params -= trimmedMean*3 = -(1,10)*3.
	if math.Abs(float64(got[0])+3) > 1e-4 || math.Abs(float64(got[1])+30) > 1e-4 {
		t.Fatalf("weights %v leaked the outlier, want [-3 -30]", got)
	}
}

// TestStoreFlushPublishesPartialWindow: a demanded ticket must not wait for a
// full window.
func TestStoreFlushPublishesPartialWindow(t *testing.T) {
	params := tensor.FromSlice([]float32{0}, 1)
	st, err := NewStoreSharded([]*tensor.Tensor{params}, optimizer.NewSGD(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetAggregator(AggregatorConfig{Kind: AggMedian}, 8); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ticket, err := st.EnqueueApply([]*tensor.Tensor{tensor.FromSlice([]float32{1}, 1)})
	if err != nil {
		t.Fatal(err)
	}
	st.Flush()
	if !st.WaitApplied(ticket, timeoutChan(t)) {
		t.Fatal("flush did not publish the partial window")
	}
}
