package tensor

import "fmt"

// Matrix multiplication is the numeric hot path of both training (dense and
// im2col'd convolution layers) and the simulator's calibration runs. The
// kernels below are cache-blocked and 4-way unrolled over the inner
// dimension, and large products are split across the package's shared worker
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
// gemmPanel and dotPanel are the register-tiled panels (gemm_amd64.s): a
// mmTileI×mmTileJ block of a plain or transposed-A product, or two rows by
// four columns of a transposed-B one, held in registers across the whole k
// sweep. They exist in assembly only and stay nil elsewhere; mmRowRange
// then runs the row loops alone. Where the CPU has AVX-512 too, the panels
// are their AVX-512 forms, bit-identical to the AVX2 ones.
//
// All are rebound once, at package init, when the CPU probe passes; kernel
// names the binding that is live.
var (
	fma4Rows  = mm4Rows
	gemmPanel func(c *float32, ldc int, a *float32, ars, aks int, b *float32, ldb, k, tiles int, acc bool)
	dotPanel  func(c *float32, ldc int, a *float32, lda, rows int, b *float32, ldb, cols, k int, acc bool)
	kernel    = "go"
)

// The output tile gemmPanel holds in registers.
const (
	mmTileI = 4
	mmTileJ = 16
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
// products stay serial, returning the previous value; 0 sends every product
// through the worker pool. It exists for tuning experiments and for tests in
// other packages that must exercise the parallel path on small shapes. Not
// safe to call concurrently with running multiplications.
func SetMatMulParallelMinFlops(flops int64) int64 {
	prev := mmParallelMinFlops
	mmParallelMinFlops = flops
	return prev
}

// mmGrainFlops is the minimum work per parallel chunk: enough that a chunk's
// compute dominates its scheduling cost. An eighth of mmParallelMinFlops, and
// rebound with it.
var mmGrainFlops int64 = 1 << 18

// mmBlockJ is the column-block width: four unrolled operand rows of a block
// plus the output row block stay resident in L1 across the inner-dimension
// sweep.
const mmBlockJ = 512

// mmKind selects the row kernel of a product.
type mmKind uint8

const (
	mmPlain  mmKind = iota // a(m,k) × b(k,n)
	mmTransA               // aᵀ × b for a stored (k,m)
	mmTransB               // a × bᵀ for b stored (n,k)
)

// mmRowRange computes output rows [i0,i1) of the product kind names. Where
// the panels are bound, whole tiles go through them — four rows by every
// whole sixteen columns for a plain or transposed-A product, which differ
// only in a's two strides, and every row and column for a transposed-B one —
// and the row loops take what is left.
func mmRowRange(kind mmKind, a, b, out []float32, m, k, n, i0, i1 int, acc bool) {
	if kind == mmTransB {
		if dotPanel == nil {
			mmTransBRows(a, b, out, k, n, i0, i1, acc)
			return
		}
		for j := 0; j < n; j += 4 {
			dotPanel(&out[i0*n+j], n, &a[i0*k], k, i1-i0, &b[j*k], k, min(4, n-j), k, acc)
		}
		return
	}
	// Element (i, kk) of the left operand is a[i*ars+kk*aks].
	ars, aks := k, 1
	if kind == mmTransA {
		ars, aks = 1, m
	}
	if tiles := n / mmTileJ; gemmPanel != nil && tiles > 0 {
		it := i0
		for ; it+mmTileI <= i1; it += mmTileI {
			gemmPanel(&out[it*n], n, &a[it*ars], ars, aks, &b[0], n, k, tiles, acc)
		}
		mmRows(a, ars, aks, b, out, k, n, i0, it, tiles*mmTileJ, acc)
		i0 = it
	}
	mmRows(a, ars, aks, b, out, k, n, i0, i1, 0, acc)
}

// mmRun computes an (m,n) product into out: on the calling goroutine when it
// is too small to amortize a fan-out, otherwise split by output-row blocks
// across the shared worker pool. The closure the pool needs is built on the
// parallel branch only, so a serial product allocates nothing.
func mmRun(kind mmKind, a, b, out []float32, m, k, n int, acc bool) {
	if mmSerial(m, k, n) {
		mmRowRange(kind, a, b, out, m, k, n, 0, m, acc)
		return
	}
	mmParallel(m, k, n, func(i0, i1 int) {
		mmRowRange(kind, a, b, out, m, k, n, i0, i1, acc)
	})
}

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
	parallelFor(m, grain, rows)
}

// MatMul returns the matrix product a×b for two 2-D tensors of shapes (m,k)
// and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMul", a, b, false)
	out := New(m, n)
	// A fresh tensor is already zero, so the kernel can accumulate straight
	// into it and skip the clear pass.
	mmRun(mmPlain, a.data, b.data, out.data, m, k, n, true)
	return out
}

// MatMulInto computes a×b into dst (overwriting it) and returns dst,
// avoiding the output allocation for callers with a reusable buffer. dst
// must have shape (m,n) and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMulInto", a, b, false)
	mmCheckDst("MatMulInto", dst, m, n)
	mmRun(mmPlain, a.data, b.data, dst.data, m, k, n, false)
	return dst
}

// MatMulTransA returns aᵀ×b for a of shape (k,m) and b of shape (k,n),
// producing an (m,n) tensor. It is used in the backward pass of dense layers
// without materializing the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMulTransA", a, b, true)
	out := New(m, n)
	mmRun(mmTransA, a.data, b.data, out.data, m, k, n, true)
	return out
}

// MatMulTransAInto computes aᵀ×b into dst (overwriting it) and returns dst.
// dst must have shape (m,n) for a of shape (k,m) and must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMulTransAInto", a, b, true)
	mmCheckDst("MatMulTransAInto", dst, m, n)
	mmRun(mmTransA, a.data, b.data, dst.data, m, k, n, false)
	return dst
}

// MatMulTransAAcc accumulates aᵀ×b into dst (dst += aᵀ×b) and returns dst.
// It fuses the gradient-accumulation pattern dst.Add(MatMulTransA(a, b))
// into one pass with no temporary. dst must not alias a or b.
func MatMulTransAAcc(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapes("MatMulTransAAcc", a, b, true)
	mmCheckDst("MatMulTransAAcc", dst, m, n)
	mmRun(mmTransA, a.data, b.data, dst.data, m, k, n, true)
	return dst
}

// MatMulTransB returns a×bᵀ for a of shape (m,k) and b of shape (n,k),
// producing an (m,n) tensor. It is used in the backward pass of dense layers.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := mmShapesTransB("MatMulTransB", a, b)
	out := New(m, n)
	mmRun(mmTransB, a.data, b.data, out.data, m, k, n, false)
	return out
}

// MatMulTransBInto computes a×bᵀ into dst (overwriting it) and returns dst.
// dst must have shape (m,n) for b of shape (n,k) and must not alias a or b.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapesTransB("MatMulTransBInto", a, b)
	mmCheckDst("MatMulTransBInto", dst, m, n)
	mmRun(mmTransB, a.data, b.data, dst.data, m, k, n, false)
	return dst
}

// MatMulTransBAcc accumulates a×bᵀ into dst (dst += a×bᵀ) and returns dst.
// dst must not alias a or b.
func MatMulTransBAcc(dst, a, b *Tensor) *Tensor {
	m, k, n := mmShapesTransB("MatMulTransBAcc", a, b)
	mmCheckDst("MatMulTransBAcc", dst, m, n)
	mmRun(mmTransB, a.data, b.data, dst.data, m, k, n, true)
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

// mmRows computes columns [j0,n) of output rows [i0,i1) of a plain or
// transposed-A product, a's element (i, kk) at a[i*ars+kk*aks]. With acc the
// rows accumulate into out; otherwise each column block is cleared first.
// Four b-rows are streamed per pass over a column block, so the block of out
// stays in L1 while each element of b is read exactly once per output row.
// The Go form of the 4-row step runs at the scalar floating-point ceiling
// (two FP ops per multiply-add with all bounds checks eliminated); wider
// row/column tiles were measured slower there because their extra live
// coefficients spill.
func mmRows(a []float32, ars, aks int, b, out []float32, k, n, i0, i1, j0 int, acc bool) {
	for i := i0; i < i1; i++ {
		orow := out[i*n : i*n+n]
		for jb := j0; jb < n; jb += mmBlockJ {
			je := min(jb+mmBlockJ, n)
			ob := orow[jb:je:je]
			if !acc {
				clear(ob)
			}
			w := je - jb
			p := i * ars
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				r := kk*n + jb
				fma4Rows(ob,
					b[r:r+w], b[r+n:r+n+w], b[r+2*n:r+2*n+w], b[r+3*n:r+3*n+w],
					a[p], a[p+aks], a[p+2*aks], a[p+3*aks])
				p += 4 * aks
			}
			for ; kk < k; kk++ {
				axpySlice(a[p], b[kk*n+jb:kk*n+jb+w], ob)
				p += aks
			}
		}
	}
}

// mmDot4 returns the dot products of arow against b0..b3. The reslices pin every operand to len(arow)
// so the compiler drops all bounds checks; the four accumulator chains are
// independent and overlap in the pipeline. Each chain keeps the scalar
// loop's accumulation order.
func mmDot4(arow, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	b0 = b0[:len(arow)]
	b1 = b1[:len(arow)]
	b2 = b2[:len(arow)]
	b3 = b3[:len(arow)]
	for kk, av := range arow {
		s0 += av * b0[kk]
		s1 += av * b1[kk]
		s2 += av * b2[kk]
		s3 += av * b3[kk]
	}
	return s0, s1, s2, s3
}

// mmTransBRows computes output rows [i0,i1) of a(m,k)×bᵀ for b stored as
// (n,k): each output element is a dot product of two contiguous rows. Four
// output columns are computed per pass with independent accumulators, so
// the row of a is read once per four outputs and the four dot-product
// chains overlap. The per-output accumulation order matches the scalar loop
// exactly.
func mmTransBRows(a, b, out []float32, k, n, i0, i1 int, acc bool) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : i*k+k : i*k+k]
		orow := out[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			r := j * k
			s0, s1, s2, s3 := mmDot4(arow,
				b[r:r+k], b[r+k:r+2*k], b[r+2*k:r+3*k], b[r+3*k:r+4*k])
			if acc {
				orow[j] += s0
				orow[j+1] += s1
				orow[j+2] += s2
				orow[j+3] += s3
			} else {
				orow[j] = s0
				orow[j+1] = s1
				orow[j+2] = s2
				orow[j+3] = s3
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var sum float32
			brow = brow[:len(arow)]
			for kk, av := range arow {
				sum += av * brow[kk]
			}
			if acc {
				orow[j] += sum
			} else {
				orow[j] = sum
			}
		}
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
