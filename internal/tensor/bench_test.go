package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMul128 names the bound kernel in its one sub-benchmark: the
// assembly is 5x the Go loops, so numbers of two bindings do not compare.
// BENCH_baseline.json holds an entry for each name (make bench-baseline
// appends a -tags purego run), so its column beside the bench gate compares
// whichever this machine produces like for like.
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

// BenchmarkMatMulTransASmallK is the wide MLP's weight gradient at batch 4,
// dW = xᵀ·dy, an 8192×4ᵀ·4×32 product: the small-k pass's shape where it is
// bound (its sub-benchmark names the kernel, as BenchmarkMatMul128's does).
func BenchmarkMatMulTransASmallK(b *testing.B) {
	b.Run("kernel="+Kernel(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		x := New(4, 8192).RandNormal(rng, 0, 1)
		dy := New(4, 32).RandNormal(rng, 0, 1)
		dW := New(8192, 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulTransAInto(dW, x, dy)
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

// BenchmarkKernels times the matmul row step at the widths the layers use
// (32: the wide MLP's dense layer; 64-512: conv planes and column blocks), Go
// loop against whatever the seam is bound to — the source of DESIGN.md's
// kernel table. One op is 1000 calls, so the short fixed -benchtime of the
// baseline run still measures the kernel, not the timer; ns/call is the
// figure to read. (The panels are timed through the products they serve:
// BenchmarkMatMulConvShapes.)
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
		}{{"go", mm4Rows}, {"bound", fma4Rows}} {
			b.Run(fmt.Sprintf("fma4Rows/%s/%d", k.name, w), func(b *testing.B) {
				for i := 0; i < b.N*calls; i++ {
					k.fma(v[0], v[1], v[2], v[3], v[4], 1e-3, -1e-3, 2e-3, -2e-3)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/call")
			})
		}
	}
}

func BenchmarkAXPYLargeVector(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(1_000_000).RandNormal(rng, 0, 1)
	y := New(1_000_000).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AXPY(0.01, y)
	}
}

// convShapes are the eight distinct shapes of ResNet-8's nine convolutions on
// a 32×32 input (the two of the first block are alike), one image at a time,
// as (outC, patch, plane): the forward product is (outC,patch)×(patch,plane),
// the weight gradient (outC,plane)×(patch,plane)ᵀ and the input gradient
// (outC,patch)ᵀ×(outC,plane).
var convShapes = [][3]int{
	{16, 27, 1024}, {16, 144, 1024}, {32, 144, 256}, {32, 288, 256}, {32, 16, 256},
	{64, 288, 64}, {64, 576, 64}, {64, 32, 64},
}

// BenchmarkMatMulConvShapes times the three products of every conv shape of
// ResNet-8 (flat-compute's model) and reports each one's rate. The names
// carry the bound kernel, as BenchmarkMatMul128's does: the bench gate pins
// the widest shape.
func BenchmarkMatMulConvShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range convShapes {
		outC, patch, plane := s[0], s[1], s[2]
		w := New(outC, patch).RandNormal(rng, 0, 1)
		col := New(patch, plane).RandNormal(rng, 0, 1)
		grad := New(outC, plane).RandNormal(rng, 0, 1)
		out := New(outC, plane)
		dw := New(outC, patch)
		dcol := New(patch, plane)
		for _, p := range []struct {
			name string
			run  func()
		}{
			{"forward", func() { MatMulInto(out, w, col) }},
			{"dW", func() { MatMulTransBAcc(dw, grad, col) }},
			{"dcol", func() { MatMulTransAInto(dcol, w, grad) }},
		} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s/kernel=%s", outC, patch, plane, p.name, Kernel()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.run()
				}
				flops := 2 * float64(outC) * float64(patch) * float64(plane)
				b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
			})
		}
	}
}

// directConvShapes are the stride-1 3×3 convolutions of ResNet-8 on a 32×32
// input as (inC, outC, size): five layers, four shapes (the two of the first
// block are alike), each run directly on a bordered image (internal/nn's
// direct path).
var directConvShapes = [][3]int{{3, 16, 32}, {16, 16, 32}, {32, 32, 16}, {64, 64, 8}}

// BenchmarkDirectConvShapes times the three offset-table products of every
// direct conv shape of ResNet-8, one image at a time as the layer runs them —
// forward (weights × the bordered image's shifted views), dW (gradient ×
// those views as runs) and dX (nine taps of Wᵀ × the padded-width gradient
// added onto a bordered dx) — and reports each one's rate in the im2col
// product's flops. The names carry the bound kernel: the bench gate pins the
// widest shape.
func BenchmarkDirectConvShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range directConvShapes {
		inC, outC, size := s[0], s[1], s[2]
		ld, patch := size+2, inC*9
		padPlane, wideN := (size+3)*ld, size*ld
		pad := New(inC*padPlane).RandNormal(rng, 0, 1).Data()
		off := make([]int, patch)
		for kk := range off {
			off[kk] = kk/9*padPlane + kk%9/3*ld + kk%3
		}
		rows := make([]int, outC)
		for oc := range rows {
			rows[oc] = oc * wideN
		}
		w := New(outC, patch).RandNormal(rng, 0, 1).Data()
		grad := New(outC, size*size).RandNormal(rng, 0, 1)
		wideGrad := New(outC*wideN).RandNormal(rng, 0, 1).Data()
		wide := make([]float32, outC*wideN)
		padDx := make([]float32, inC*padPlane)
		dw := New(outC, patch)
		for _, p := range []struct {
			name string
			run  func()
		}{
			{"forward", func() { MatMulOffset(wide, wideN, w, outC, patch, 1, pad, off, wideN, false) }},
			{"dW", func() { MatMulTransBOffset(dw, grad, pad, off, size, size, ld, true) }},
			{"dX", func() {
				for t := 0; t < 9; t++ {
					MatMulOffset(padDx[t/3*ld+t%3:], padPlane, w[t:], inC, 9, patch, wideGrad, rows, wideN, true)
				}
			}},
		} {
			b.Run(fmt.Sprintf("%dx%dx%dx%d/%s/kernel=%s", inC, outC, size, size, p.name, Kernel()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.run()
				}
				flops := 2 * float64(outC) * float64(patch) * float64(size*size)
				b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
			})
		}
	}
}
