package ps

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dssp/internal/tensor"
)

// Aggregator kinds accepted by AggregatorConfig.Kind.
const (
	// AggSum is plain gradient summation — the classic parameter-server
	// update and the default. It is the undefended baseline: a single
	// Byzantine worker scaling its gradients steers the whole model.
	AggSum = "sum"
	// AggClipped is norm-clipped summation: each push's per-tensor gradient
	// is scaled down to an L2 norm of at most ClipNorm before summing, so no
	// single push can dominate an update. Tensors with a non-finite norm
	// (NaN/Inf gradients) contribute nothing.
	AggClipped = "clipped"
	// AggTrimmedMean is the coordinate-wise trimmed mean over an aggregation
	// window of pushes: per coordinate, the DefaultTrim fraction of extreme
	// values on each side is discarded and the mean of the rest — scaled back to
	// sum magnitude — is applied. Non-finite coordinates are rejected before
	// trimming.
	AggTrimmedMean = "trimmed-mean"
	// AggMedian is the coordinate-wise median over an aggregation window,
	// scaled to sum magnitude. The most aggressive robust estimator: up to
	// half the window may lie per coordinate.
	AggMedian = "median"
)

// Aggregation parameters.
const (
	// DefaultTrim is the per-side trim fraction of the trimmed-mean
	// aggregator: a quarter off each end tolerates one attacker in a window
	// of four.
	DefaultTrim = 0.25
	// DefaultFlushInterval is the window watchdog's tick: a partial
	// aggregation window nobody completes (stragglers, departed workers) is
	// force-published after at most two ticks, bounding the extra release
	// latency windowed aggregation can add.
	DefaultFlushInterval = 2 * time.Millisecond
)

// AggregatorConfig selects how the per-shard appliers reduce a batch of
// queued pushes into one optimizer step. The zero value is plain summation —
// exactly the classic pipeline.
//
// Sum and clipped step once per push. The windowed robust kinds (Windowed)
// collect a window of as many pushes as the server has workers before taking
// a robust step: the order statistics need the honest majority in-window to
// out-vote an attacker. Partial windows are force-published whenever a
// release is waiting on them, so paradigms that release per push (ASP, SSP,
// DSSP) stay live; what the window buys is that concurrent pushes are
// aggregated robustly instead of summed.
type AggregatorConfig struct {
	// Kind is AggSum (""), AggClipped, AggTrimmedMean or AggMedian — at the
	// public surface dssp.AggregateSum, AggregateClipped, AggregateTrimmedMean
	// and AggregateMedian, where this type is dssp.Aggregator.
	Kind string
	// ClipNorm is the per-tensor L2 cap of the clipped aggregator; it must
	// be positive for AggClipped and is ignored elsewhere.
	ClipNorm float64
}

// Windowed reports whether the configured kind aggregates over a multi-push
// window (the robust order statistics need several contributions to reject
// outliers).
func (c AggregatorConfig) Windowed() bool {
	return c.Kind == AggTrimmedMean || c.Kind == AggMedian
}

// Normalized maps zero values onto their explicit form.
func (c AggregatorConfig) Normalized() AggregatorConfig {
	if c.Kind == "" {
		c.Kind = AggSum
	}
	if c.Kind != AggClipped {
		c.ClipNorm = 0
	}
	return c
}

// Validate checks the configuration.
func (c AggregatorConfig) Validate() error {
	switch c.Kind {
	case "", AggSum, AggTrimmedMean, AggMedian:
	case AggClipped:
		if c.ClipNorm <= 0 {
			return fmt.Errorf("ps: clipped aggregator needs a positive clip norm, got %g", c.ClipNorm)
		}
	default:
		return fmt.Errorf("ps: unknown aggregator %q (want %s, %s, %s or %s)",
			c.Kind, AggSum, AggClipped, AggTrimmedMean, AggMedian)
	}
	return nil
}

// String renders the configuration, e.g. "trimmed-mean(0.25)".
func (c AggregatorConfig) String() string {
	c = c.Normalized()
	switch c.Kind {
	case AggClipped:
		return fmt.Sprintf("%s(%g)", c.Kind, c.ClipNorm)
	case AggTrimmedMean:
		return fmt.Sprintf("%s(%g)", c.Kind, DefaultTrim)
	}
	return c.Kind
}

// aggregator reduces one batch of queued gradient slices into the single
// update a shard applies. Each shard owns its own instance (implementations
// keep reusable scratch), and the batch's tensors are read-only: the result
// is either an alias of one input (the sum fast path) or written into
// scratch owned by the aggregator.
type aggregator interface {
	// combine reduces batch (len >= 1, homogeneous shapes) into one gradient
	// slice whose magnitude matches the sum of the batch — a window of k
	// pushes advances the version by k, so its update must scale like k
	// pushes.
	combine(batch [][]*tensor.Tensor) []*tensor.Tensor
}

// newAggregator builds one shard's aggregator for a normalized, validated
// configuration. Plain sum returns nil: the shard keeps its classic
// summation fast path, bit-identical to the pre-seam pipeline.
func newAggregator(cfg AggregatorConfig) aggregator {
	switch cfg.Kind {
	case AggClipped:
		return &clippedSum{clip: cfg.ClipNorm}
	case AggTrimmedMean:
		return &coordinateRobust{}
	case AggMedian:
		return &coordinateRobust{median: true}
	default:
		return nil
	}
}

// scratchFor returns a scratch gradient slice shaped like the reference,
// reusing buf when it is already allocated.
func scratchFor(buf []*tensor.Tensor, ref []*tensor.Tensor) []*tensor.Tensor {
	if buf != nil {
		return buf
	}
	buf = make([]*tensor.Tensor, len(ref))
	for i, g := range ref {
		buf[i] = tensor.New(g.Shape()...)
	}
	return buf
}

// clippedSum sums the batch with each push's tensors norm-clipped first: a
// tensor whose L2 norm exceeds clip is scaled down to exactly clip, and a
// tensor whose norm is not finite (NaN/Inf gradients) is rejected outright.
// Because shards own whole tensors, the per-tensor norm is computed over the
// tensor's full coordinate set — clipping is exact, not per-fragment.
type clippedSum struct {
	clip float64
	buf  []*tensor.Tensor
}

func (a *clippedSum) combine(batch [][]*tensor.Tensor) []*tensor.Tensor {
	a.buf = scratchFor(a.buf, batch[0])
	for i := range a.buf {
		out := a.buf[i].Data()
		for j := range out {
			out[j] = 0
		}
		for _, grads := range batch {
			src := grads[i].Data()
			norm := 0.0
			for _, v := range src {
				norm += float64(v) * float64(v)
			}
			norm = math.Sqrt(norm)
			if math.IsNaN(norm) || math.IsInf(norm, 0) {
				continue // poisoned tensor: contributes nothing
			}
			scale := float32(1)
			if norm > a.clip {
				scale = float32(a.clip / norm)
			}
			for j, v := range src {
				out[j] += v * scale
			}
		}
	}
	return a.buf
}

// coordinateRobust implements the windowed order-statistic aggregators:
// coordinate-wise trimmed mean (DefaultTrim off each side) or median (median
// == true) over the batch, scaled by the batch size so a window of k pushes has the
// magnitude of k pushes. Non-finite values are excluded per coordinate
// before the statistic; a coordinate with no finite contribution yields 0.
type coordinateRobust struct {
	median bool
	buf    []*tensor.Tensor
	vals   []float64
}

func (a *coordinateRobust) combine(batch [][]*tensor.Tensor) []*tensor.Tensor {
	k := len(batch)
	a.buf = scratchFor(a.buf, batch[0])
	if cap(a.vals) < k {
		a.vals = make([]float64, 0, k)
	}
	for i := range a.buf {
		out := a.buf[i].Data()
		for j := range out {
			vals := a.vals[:0]
			for _, grads := range batch {
				v := float64(grads[i].Data()[j])
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				vals = append(vals, v)
			}
			out[j] = float32(float64(k) * a.statistic(vals))
		}
	}
	return a.buf
}

// statistic computes the configured order statistic of the finite values of
// one coordinate. vals is scratch and may be reordered.
func (a *coordinateRobust) statistic(vals []float64) float64 {
	m := len(vals)
	if m == 0 {
		return 0
	}
	if m == 1 {
		return vals[0]
	}
	sort.Float64s(vals)
	if a.median {
		if m%2 == 1 {
			return vals[m/2]
		}
		return (vals[m/2-1] + vals[m/2]) / 2
	}
	t := int(math.Ceil(DefaultTrim * float64(m)))
	if 2*t >= m {
		// Too few values to trim both sides: fall back to the median, the
		// limit of trimming everything but the middle.
		if m%2 == 1 {
			return vals[m/2]
		}
		return (vals[m/2-1] + vals[m/2]) / 2
	}
	sum := 0.0
	for _, v := range vals[t : m-t] {
		sum += v
	}
	return sum / float64(m-2*t)
}
