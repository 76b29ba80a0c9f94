package compress

import (
	"fmt"
	"math/rand"
	"testing"

	"dssp/internal/tensor"
)

// benchGrads builds a gradient set shaped like a small CNN's parameters
// (matching the layer structure internal/ps benchmarks against), drawn at the
// given standard deviation.
func benchGrads(rng *rand.Rand, scale float64) []*tensor.Tensor {
	shapes := [][]int{
		{256, 256}, {256}, {128, 256}, {128}, {64, 128}, {64}, {32, 64}, {32},
	}
	out := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		out[i] = randTensor(rng, scale, s...)
	}
	return out
}

// benchScales are the magnitudes every codec benchmark runs at: 0.1 is
// weights and early-training gradients; 1e-5 and 1e-7 are what a converged
// model pushes — the fp16 subnormal range, where a converter with a
// magnitude-dependent slow path shows it.
var benchScales = []float64{0.1, 1e-5, 1e-7}

// benchName is the sub-benchmark name of a codec at a magnitude. The 0.1
// case keeps the bare codec name it has always had in the BENCH_*.json record.
// The value codecs name the kernel binding they ran on, as BenchmarkMatMul128
// does: the assembly is 5-25x the Go loops, so numbers of two bindings do not
// compare. BENCH_baseline.json holds an entry for each (make bench-baseline
// appends a -tags purego run), so its column beside the bench gate compares
// whichever this machine produces like for like.
func benchName(cfg Config, scale float64) string {
	name := cfg.String()
	if scale != 0.1 {
		name = fmt.Sprintf("%s/scale=%g", cfg, scale)
	}
	if cfg.Codec == FP16 || cfg.Codec == Int8 {
		name += "/kernel=" + Kernel()
	}
	return name
}

// reportPerValue adds ns/value (and allocs/op, whatever -benchmem says) to a
// benchmark whose iteration handles ts once.
func reportPerValue(b *testing.B, ts []*tensor.Tensor) {
	values := 0
	for _, t := range ts {
		values += t.Size()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
}

func denseBytes(ts []*tensor.Tensor) int {
	n := 0
	for _, t := range ts {
		n += 4 * t.Size()
	}
	return n
}

func packedBytes(ps []Packed) int {
	n := 0
	for _, p := range ps {
		n += p.WireSize()
	}
	return n
}

// BenchmarkCompress measures worker-side compression throughput per codec
// and reports the payload size and its reduction over dense float32.
func BenchmarkCompress(b *testing.B) {
	for _, cfg := range []Config{
		{Codec: FP16},
		{Codec: Int8},
		{Codec: TopK, TopK: 0.1},
		{Codec: TopK, TopK: 0.01},
	} {
		for _, scale := range benchScales {
			b.Run(benchName(cfg, scale), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				grads := benchGrads(rng, scale)
				c, err := NewCompressor(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var packed []Packed
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					packed = c.Compress(grads)
				}
				b.StopTimer()
				reportPerValue(b, grads)
				b.ReportMetric(float64(packedBytes(packed)), "wire-B/op")
				b.ReportMetric(float64(denseBytes(grads))/float64(packedBytes(packed)), "x-reduction")
			})
		}
	}
}

// BenchmarkDecompress measures the server-side decode per codec, into the
// per-session scratch the server reuses.
func BenchmarkDecompress(b *testing.B) {
	for _, cfg := range []Config{
		{Codec: FP16},
		{Codec: Int8},
		{Codec: TopK, TopK: 0.1},
	} {
		for _, scale := range benchScales {
			b.Run(benchName(cfg, scale), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				c, err := NewCompressor(cfg)
				if err != nil {
					b.Fatal(err)
				}
				grads := benchGrads(rng, scale)
				packed := c.Compress(grads)
				var scratch []*tensor.Tensor
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if scratch, err = DecompressAllReuse(packed, scratch); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportPerValue(b, grads)
			})
		}
	}
}

// BenchmarkPackPullPath measures the stateless weight packing the server
// performs per shard update, into the recycled buffers the store hands it.
func BenchmarkPackPullPath(b *testing.B) {
	for _, cfg := range []Config{{Codec: FP16}, {Codec: Int8}} {
		for _, scale := range benchScales {
			b.Run(benchName(cfg, scale), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				weights := benchGrads(rng, scale)
				var packed []Packed
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					packed = PackInto(packed, weights, cfg)
				}
				b.StopTimer()
				reportPerValue(b, weights)
			})
		}
	}
}
