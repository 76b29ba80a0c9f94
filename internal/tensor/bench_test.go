package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMul128 names the bound kernel in its one sub-benchmark: the
// assembly is 5x the Go loops, so a baseline recorded on an AVX2 machine would
// fail the bench gate on a runner without it. BENCH_baseline.json holds an
// entry for each name (make bench-baseline appends a -tags purego run) and
// the gate compares whichever this machine produces.
func BenchmarkMatMul128(b *testing.B) {
	b.Run("kernel="+Kernel(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x := New(128, 128).RandNormal(rng, 0, 1)
		y := New(128, 128).RandNormal(rng, 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMul(x, y)
		}
	})
}

func BenchmarkMatMulTransA128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := New(128, 128).RandNormal(rng, 0, 1)
	y := New(128, 128).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransA(x, y)
	}
}

func BenchmarkMatMulTransB128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := New(128, 128).RandNormal(rng, 0, 1)
	y := New(128, 128).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(x, y)
	}
}

// BenchmarkKernels times the two matmul inner loops at the widths the layers
// use (32: the wide MLP's dense layer; 64-512: conv planes and column
// blocks), Go loop against whatever the seam is bound to — the source of
// DESIGN.md's kernel table. One op is 1000 calls, so the short fixed
// -benchtime of the baseline run still measures the kernel, not the timer;
// ns/call is the figure to read.
func BenchmarkKernels(b *testing.B) {
	const calls = 1000
	rng := rand.New(rand.NewSource(6))
	for _, w := range []int{32, 64, 256, 512} {
		v := make([][]float32, 5)
		for i := range v {
			v[i] = New(w).RandNormal(rng, 0, 1).Data()
		}
		for _, k := range []struct {
			name string
			fma  func(ob, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
			dot  func(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
		}{{"go", mm4Rows, mmDot4}, {"bound", fma4Rows, dot4}} {
			b.Run(fmt.Sprintf("fma4Rows/%s/%d", k.name, w), func(b *testing.B) {
				for i := 0; i < b.N*calls; i++ {
					k.fma(v[0], v[1], v[2], v[3], v[4], 1e-3, -1e-3, 2e-3, -2e-3)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/call")
			})
			b.Run(fmt.Sprintf("dot4/%s/%d", k.name, w), func(b *testing.B) {
				var s float32
				for i := 0; i < b.N*calls; i++ {
					s0, s1, s2, s3 := k.dot(v[0], v[1], v[2], v[3], v[4])
					s += s0 + s1 + s2 + s3
				}
				kernelSink = s
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/call")
			})
		}
	}
}

var kernelSink float32

func BenchmarkAXPYLargeVector(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(1_000_000).RandNormal(rng, 0, 1)
	y := New(1_000_000).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AXPY(0.01, y)
	}
}

func BenchmarkEncodeDecodeGradientSizedTensor(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	t := New(512, 256).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := t.Encode(nil)
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
