package tensor

import (
	"fmt"
	"sync"
)

// Matrix multiplication is the numeric hot path of both training (dense and
// convolution layers) and the simulator's calibration runs. Every product runs
// on one kernel family, the offset-table product of offset.go: the right
// operand's row kk is read at b[off[kk]], and a dense operand is the table
// off[kk] = kk·ldb (denseRows). The kernels are register-tiled panels over
// the whole inner dimension with cache-blocked, 4-way unrolled row loops for
// the edges, and large products are split across the package's shared worker
// pool by output-row blocks (pool.go); small matrices stay serial, so layer
// shapes that fit in cache never pay fan-out overhead.
//
// The inner loops sit behind one seam, the function values below: bound to
// AVX2+FMA assembly on CPUs that have it (kernels_amd64.s, gemm_amd64.s), to
// the Go loops everywhere else (other architectures, older CPUs, -tags
// purego). Row splitting and every exported signature are the same on both
// paths.
//
// Numerics: all three products accumulate several inner-dimension terms per
// pass, which reassociates the k-sum relative to a scalar i-k-j loop, and the
// assembly fuses each multiply-add into one rounding — results are
// deterministic for a given shape on a given kernel path, whatever the row
// split, but differ from the scalar reference by rounding (tolerance-bounded,
// see matmul_test.go). On the Go path MatMulTransB keeps the scalar loop's
// per-output accumulation order and is bit-identical to it; on the assembly
// path it is tolerance-bounded like the other two. Gradients and activations
// are dense, so the kernels carry no zero-skip branches: on real workloads
// such branches are pure mispredict overhead in the innermost loop.

// fma4Rows adds a0·b0 + a1·b1 + a2·b2 + a3·b3 into ob. Callers pass b0..b3
// sliced to exactly ob's length: the assembly form trusts it.
//
// gemmOffPanel and dotOffPanel are the register-tiled panels (gemm_amd64.s):
// a mmTileI×mmTileJ block of a plain or transposed-A product, or two rows by
// four columns of a transposed-B one, held in registers across the whole k
// sweep, the right operand's rows read through an offset table (offset.go has
// their contracts). They exist in assembly only and stay nil elsewhere; the
// row loops then do the whole product. Where the CPU has AVX-512 too, the
// panels are their AVX-512 forms, bit-identical to the AVX2 ones.
//
// gemmOffSmallK is the small-k pass of a plain or transposed-A product: with
// an inner dimension of at most mmSmallK it holds b's k×mmSmallKCols block in
// registers and streams every output row of the block through it (offset.go
// has its contract). It exists in AVX-512 form only, bit-identical to the
// panels. Given half, it stores no product: each output runs the fp16
// error-feedback encode in registers instead (MatMulTransAF16Feedback).
//
// All are rebound once, at package init, when the CPU probe passes; kernel
// names the binding that is live.
var (
	fma4Rows      = mm4Rows
	gemmOffPanel  func(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, tiles int, add bool)
	dotOffPanel   func(c *float32, ldc int, a *float32, lda, rows int, b *float32, off *int, cols, w, h, ldb int, acc bool)
	gemmOffSmallK func(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, rows, cols int, add bool, half *byte)
	kernel        = "go"
)

// The output tile gemmOffPanel holds in registers, and the largest b block
// gemmOffSmallK does.
const (
	mmTileI      = 4
	mmTileJ      = 16
	mmSmallK     = 8
	mmSmallKCols = 32
)

// Kernel names the binding of the package's kernels: "avx512" for the
// assembly with the AVX-512 panels, "avx2" for the assembly without them,
// "go" for the portable loops.
func Kernel() string { return kernel }

// mmParallelMinFlops is the size threshold (in multiply-add flops, counted
// as 2·m·k·n) below which a product stays on the calling goroutine. Small
// matmuls are latency-bound: the pool's wakeup cost would exceed the work.
// The value stands for about half a millisecond of work, which is what it
// takes to amortize a wake-up, at the rate of the bound kernels: 1<<21 for
// the Go loops (≈5 Gflop/s); the assembly's init raises it with the kernel
// rate (kernels_amd64.go, with the measurements). Tests lower it to force the
// parallel path on small shapes.
var mmParallelMinFlops int64 = 1 << 21

// SetMatMulParallelMinFlops adjusts the flop threshold below which matrix
// products stay serial, and the grain of a fan-out with it, returning the
// previous threshold; 0 sends every product of two or more rows through the
// worker pool a row at a time. It exists for tuning experiments and for tests
// in other packages that must exercise the parallel path on small shapes. Not
// safe to call concurrently with running multiplications.
func SetMatMulParallelMinFlops(flops int64) int64 {
	prev := mmParallelMinFlops
	mmParallelMinFlops, mmGrainFlops = flops, flops/8
	return prev
}

// mmGrainFlops is the minimum work per parallel chunk: enough that a chunk's
// compute dominates its scheduling cost. An eighth of mmParallelMinFlops, and
// rebound with it.
var mmGrainFlops int64 = 1 << 18

// mmChunkHook, when set, is called with the rows of every chunk a fanned-out
// product runs (the tests count them: export_test.go).
var mmChunkHook func(i0, i1 int)

// mmBlockJ is the column-block width: four unrolled operand rows of a block
// plus the output row block stay resident in L1 across the inner-dimension
// sweep.
const mmBlockJ = 512

// mmSerial reports whether an (m,k)×(k,n) product stays on the calling
// goroutine.
func mmSerial(m, k, n int) bool {
	return 2*int64(m)*int64(k)*int64(n) < mmParallelMinFlops || m == 1
}

// mmParallel fans rows [0, m) across the shared worker pool in blocks of at
// least mmGrainFlops.
func mmParallel(m, k, n int, rows func(i0, i1 int)) {
	grain := 1
	if perRow := 2 * int64(k) * int64(n); perRow > 0 && perRow < mmGrainFlops {
		grain = int(mmGrainFlops / perRow)
	}
	if hook := mmChunkHook; hook != nil {
		run := rows
		rows = func(i0, i1 int) {
			hook(i0, i1)
			run(i0, i1)
		}
	}
	parallelFor(m, grain, rows)
}

// denseTables holds the row table of every dense operand shape a product has
// met, keyed by denseShape: built once, then shared read-only by every product
// of that shape, so a product neither allocates nor rebuilds its table. The
// dense entry points pass it to mmOffset and mmTransBOffset without
// MatMulOffset's offsetsFit pass: mmShapes has checked the operands, and
// every row of the table lies inside them.
var denseTables sync.Map

type denseShape struct{ rows, stride int }

// denseRows returns the offset table of rows rows at stride floats: row r at
// r·stride.
func denseRows(rows, stride int) []int {
	key := denseShape{rows, stride}
	if off, ok := denseTables.Load(key); ok {
		return off.([]int)
	}
	off := make([]int, rows)
	for r := range off {
		off[r] = r * stride
	}
	got, _ := denseTables.LoadOrStore(key, off)
	return got.([]int)
}

// MatMul returns the matrix product a×b for two 2-D tensors of shapes (m,k)
// and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMul", a, b, false)
	out := New(m, n)
	mmOffset(out.data, n, a.data, m, k, 1, b.data, denseRows(k, n), n, false)
	return out
}

// MatMulInto computes a×b into dst (overwriting it) and returns dst,
// avoiding the output allocation for callers with a reusable buffer. dst
// must have shape (m,n) and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMulInto", a, b, false)
	mmCheckDst("MatMulInto", dst, m, n)
	mmOffset(dst.data, n, a.data, m, k, 1, b.data, denseRows(k, n), n, false)
	return dst
}

// MatMulTransA returns aᵀ×b for a of shape (k,m) and b of shape (k,n),
// producing an (m,n) tensor. It is used in the backward pass of dense layers
// without materializing the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMulTransA", a, b, true)
	out := New(m, n)
	mmOffset(out.data, n, a.data, m, 1, m, b.data, denseRows(k, n), n, false)
	return out
}

// MatMulTransAInto computes aᵀ×b into dst (overwriting it) and returns dst.
// dst must have shape (m,n) for a of shape (k,m) and must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMulTransAInto", a, b, true)
	mmCheckDst("MatMulTransAInto", dst, m, n)
	mmOffset(dst.data, n, a.data, m, 1, m, b.data, denseRows(k, n), n, false)
	return dst
}

// Factors is a matrix left as the two factors of its product Aᵀ×B, A of
// shape (k,m) and B of shape (k,n): how a layer hands on a weight gradient
// whose consumer computes the product itself (MatMulTransAF16Feedback). The
// zero value stands for no factors.
type Factors struct{ A, B *Tensor }

// MatMulTransAF16Feedback runs internal/compress's fp16 error-feedback encode
// over the product aᵀ×b without storing the product: for a of shape (k,m), b
// of shape (k,n) and r of shape (m,n), each output s = r + (aᵀ×b)ᵢⱼ is
// written to payload as an IEEE half, little endian, rounded to nearest even
// (a NaN as its sign with the quiet NaN 0x7e00), and r keeps s − half,
// exactly as MatMulTransAInto followed by that encode would leave them, bit
// for bit. It is the small-k pass's second store form, so it runs only where
// that pass is bound and k is at most mmSmallK; anywhere else it reports
// false and touches nothing. payload holds 2·m·n bytes and overlaps no
// operand.
func MatMulTransAF16Feedback(payload []byte, r, a, b *Tensor) bool {
	m, k, n := mmShapes("MatMulTransAF16Feedback", a, b, true)
	if gemmOffSmallK == nil || k > mmSmallK {
		return false
	}
	mmCheckDst("MatMulTransAF16Feedback", r, m, n)
	if len(payload) != 2*m*n {
		panic(fmt.Sprintf("tensor: MatMulTransAF16Feedback payload holds %d bytes for %d values", len(payload), m*n))
	}
	off := denseRows(k, n)
	if mmSerial(m, k, n) {
		f16FeedbackRows(payload, r.data, a.data, m, b.data, off, n, 0, m)
		return true
	}
	mmParallel(m, k, n, func(i0, i1 int) {
		f16FeedbackRows(payload, r.data, a.data, m, b.data, off, n, i0, i1)
	})
	return true
}

// f16FeedbackRows runs rows [i0,i1) of MatMulTransAF16Feedback, mmSmallKCols
// columns a call, as gemmOffRowRange runs a product's.
func f16FeedbackRows(payload []byte, r, a []float32, m int, b []float32, off []int, n, i0, i1 int) {
	for jb := 0; jb < n; jb += mmSmallKCols {
		o := i0*n + jb
		gemmOffSmallK(&r[o], n, &a[i0], 1, m, &b[jb], &off[0], len(off), i1-i0, min(mmSmallKCols, n-jb), false, &payload[2*o])
	}
}

// MatMulTransB returns a×bᵀ for a of shape (m,k) and b of shape (n,k),
// producing an (m,n) tensor. It is used in the backward pass of dense layers.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := mmShapesTransB("MatMulTransB", a, b)
	out := New(m, n)
	mmTransBOffset(out.data, a.data, m, b.data, denseRows(n, k), k, 1, k, false)
	return out
}

// MatMulTransBInto computes a×bᵀ into dst (overwriting it) and returns dst.
// dst must have shape (m,n) for b of shape (n,k) and must not alias a or b.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapesTransB("MatMulTransBInto", a, b)
	mmCheckDst("MatMulTransBInto", dst, m, n)
	mmTransBOffset(dst.data, a.data, m, b.data, denseRows(n, k), k, 1, k, false)
	return dst
}

// MatMulTransBAcc accumulates a×bᵀ into dst (dst += a×bᵀ) and returns dst.
// dst must not alias a or b.
func MatMulTransBAcc(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapesTransB("MatMulTransBAcc", a, b)
	mmCheckDst("MatMulTransBAcc", dst, m, n)
	mmTransBOffset(dst.data, a.data, m, b.data, denseRows(n, k), k, 1, k, true)
	return dst
}

// mmShapes validates the operands of a plain or transposed-A product and
// returns (m, k, n). With transA set, a has shape (k,m); otherwise (m,k).
func mmShapes(op string, a, b *Tensor, transA bool) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v and %v", op, a.shape, b.shape))
	}
	if transA {
		k, m = a.shape[0], a.shape[1]
	} else {
		m, k = a.shape[0], a.shape[1]
	}
	if k != b.shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimensions differ: %v vs %v", op, a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

// mmShapesTransB validates the operands of a transposed-B product: a of
// shape (m,k), b of shape (n,k).
func mmShapesTransB(op string, a, b *Tensor) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v and %v", op, a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	n = b.shape[0]
	if k != b.shape[1] {
		panic(fmt.Sprintf("tensor: %s inner dimensions differ: %v vs %v", op, a.shape, b.shape))
	}
	return m, k, n
}

// mmCheckDst validates an Into/Acc destination shape.
func mmCheckDst(op string, dst *Tensor, m, n int) {
	if dst.Dims() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination has shape %v, want (%d,%d)", op, dst.shape, m, n))
	}
}

// mm4Rows is the portable fma4Rows. The reslices pin every operand to
// len(ob) so the compiler drops all bounds checks from the multiply-add loop.
func mm4Rows(ob, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0 = b0[:len(ob)]
	b1 = b1[:len(ob)]
	b2 = b2[:len(ob)]
	b3 = b3[:len(ob)]
	for j, v := range b0 {
		ob[j] += a0*v + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D needs a 2-D operand, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}
