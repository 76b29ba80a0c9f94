//go:build !purego

package tensor

import "dssp/internal/cpu"

// Implemented in kernels_amd64.s.

//go:noescape
func fma4RowsAVX2(ob, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

// Implemented in gemm_amd64.s: the tile and the dot panel every matrix
// product runs, its right operand's rows read through an offset table (a
// dense operand's is kk·ldb), each in an AVX2 and an AVX-512 form.

//go:noescape
func gemmOffPanelAVX2(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, tiles int, add bool)

//go:noescape
func dotOffPanelAVX2(c *float32, ldc int, a *float32, lda, rows int, b *float32, off *int, cols, w, h, ldb int, acc bool)

//go:noescape
func gemmOffPanelAVX512(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, tiles int, add bool)

//go:noescape
func dotOffPanelAVX512(c *float32, ldc int, a *float32, lda, rows int, b *float32, off *int, cols, w, h, ldb int, acc bool)

//go:noescape
func gemmOffSmallKAVX512(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, rows, cols int, add bool, half *byte)

// Implemented in slices_amd64.s. Each trusts the other operands to be at
// least as long as the first. The ReLU and BatchNorm kernels run a whole
// slice, the up to seven values after the last window of eight included;
// the others take whole windows of eight.

//go:noescape
func addSliceAVX2(dst, src []float32)

//go:noescape
func sumPairAVX2(dst, a, b []float32)

//go:noescape
func axpySliceAVX2(alpha float32, src, dst []float32)

//go:noescape
func scaleSliceAVX2(s float32, dst []float32)

//go:noescape
func addScalarSliceAVX2(s float32, dst []float32)

//go:noescape
func sumSliceAVX2(x []float32) float32

//go:noescape
func reluMaskAVX2(out, x []float32, mask []uint64)

//go:noescape
func maskGradAVX2(dx, dy []float32, mask []uint64, bit int, add bool)

//go:noescape
func sumF64AVX2(x []float32) float64

//go:noescape
func sumSqDevF64AVX2(x []float32, mean float64) float64

//go:noescape
func sumDotAVX2(a, b []float32, mask []uint64, bit int) (sumA, sumAB float64)

//go:noescape
func normalizePlaneAVX2(out []float32, stride, width int, xhat, x, sc []float32, mask []uint64, bit int, relu bool, mean, invStd, gamma, beta float64)

//go:noescape
func planeGradAVX2(dx, dy, xhat []float32, mask []uint64, bit int, c, n, sumDy, sumDyXHat float64)

//go:noescape
func sgdStepAVX2(dst, src []float32, gs []Grad, lr float32)

//go:noescape
func sgdMomentumStepAVX2(dst, src, v []float32, gs []Grad, lr, mu float32)

//go:noescape
func sgdStepHalfAVX2(dst, src []float32, gs []Grad, lr float32)

//go:noescape
func sgdMomentumStepHalfAVX2(dst, src, v []float32, gs []Grad, lr, mu float32)

// The bound forms of the slice kernels: the assembly on the whole windows of
// eight, the Go loop on the up to seven values after them. The callers have
// cut every operand to the first one's length.

func addSliceAsm(dst, src []float32) {
	n := len(dst) &^ 7
	addSliceAVX2(dst[:n], src)
	addSliceGo(dst[n:], src[n:])
}

func sumPairAsm(dst, a, b []float32) {
	n := len(dst) &^ 7
	sumPairAVX2(dst[:n], a, b)
	sumPairGo(dst[n:], a[n:], b[n:])
}

func axpySliceAsm(alpha float32, src, dst []float32) {
	n := len(dst) &^ 7
	axpySliceAVX2(alpha, src, dst[:n])
	axpySliceGo(alpha, src[n:], dst[n:])
}

func scaleSliceAsm(s float32, dst []float32) {
	n := len(dst) &^ 7
	scaleSliceAVX2(s, dst[:n])
	scaleSliceGo(s, dst[n:])
}

func addScalarSliceAsm(s float32, dst []float32) {
	n := len(dst) &^ 7
	addScalarSliceAVX2(s, dst[:n])
	addScalarSliceGo(s, dst[n:])
}

func sumSliceAsm(x []float32) float32 {
	n := len(x) &^ 7
	return sumSliceAVX2(x[:n]) + sumSliceGo(x[n:])
}

func sumF64Asm(x []float32) float64 {
	n := len(x) &^ 7
	return sumF64AVX2(x[:n]) + sumF64Go(x[n:])
}

func sumSqDevF64Asm(x []float32, mean float64) float64 {
	n := len(x) &^ 7
	return sumSqDevF64AVX2(x[:n], mean) + sumSqDevF64Go(x[n:], mean)
}

// The SGD steps take any batch size in one pass — the assembly walks the
// batch per window, so the strip buffer of the Go loops has no counterpart —
// and the values after the last whole window in the same order, one at a time.
// A batch holding a half source takes the Half form, so the float32 one
// tests no source's kind.

func sgdStepAsm(dst, src []float32, gs []Grad, lr float32) {
	n := len(dst) &^ 7
	if f32Batch(gs) > 0 {
		sgdStepAVX2(dst[:n], src, gs, lr)
	} else {
		sgdStepHalfAVX2(dst[:n], src, gs, lr)
	}
	for j := n; j < len(dst); j++ {
		dst[j] = src[j] - lr*sgdGradSum(gs, j)
	}
}

func sgdMomentumStepAsm(dst, src, v []float32, gs []Grad, lr, mu float32) {
	n := len(dst) &^ 7
	if f32Batch(gs) > 0 {
		sgdMomentumStepAVX2(dst[:n], src, v, gs, lr, mu)
	} else {
		sgdMomentumStepHalfAVX2(dst[:n], src, v, gs, lr, mu)
	}
	for j := n; j < len(dst); j++ {
		vj := mu*v[j] + sgdGradSum(gs, j)
		v[j] = vj
		dst[j] = src[j] - lr*vj
	}
}

// sgdGradSum returns the batch's gradient sum at element j, in source order.
func sgdGradSum(gs []Grad, j int) float32 {
	sum := gs[0].at(j)
	for _, g := range gs[1:] {
		sum += g.at(j)
	}
	return sum
}

// The fan-out thresholds follow the kernels: they price a pool wake-up in
// flops, and the panels do ≈16× the flops per microsecond of the Go loops
// (≈82 Gflop/s on the reference box, where fma4Rows and dot4 alone reached
// ≈33). Measured there (2 cores, MatMulInto, serial vs forced fan-out into
// two halves, µs, range over six runs): 128³ (4.2 Mflop, BenchmarkMatMul128's
// shape) 49-51 vs 65-71; 16×144×1024 (4.7 Mflop, the widest ResNet-8 conv
// product) 57-60 vs 60-79; 192³ (14 Mflop) 169-175 vs 175-196; 256³ (34 Mflop)
// 402-421 vs 306-435; 384³ (113 Mflop) 1370-1450 vs 825-1420; 512³ 3400-3800
// vs 1880-1940. 4×8192×32 (2.1 Mflop, the wide MLP's dense layer) 23-26 vs
// 121-150: two rows a half is below the panel's four, so its halves fall back
// to the row loops — a shape that must never fan out. A wake-up costs 20 to
// 100 µs when the second core is awake and the whole chunk when it is not
// (the upper ends above), so fan-out breaks even near 0.4 ms of serial work
// and pays from ≈1 ms: 1<<26 flops is 0.8 ms at this rate, the Go loops'
// 1<<21 0.4 ms at theirs. The grain keeps its ratio to the threshold; two
// cores cannot measure it (chunks are capped at GOMAXPROCS).
//
// The AVX-512 panels run the same products at ≈130 Gflop/s, and the same
// constants hold for them. Measured the same way on an AVX-512 box (2 vCPU,
// Emerald Rapids; the AVX2 panels there at ≈70 Gflop/s in brackets): 128³
// 29-34 vs 33-41 [57-60 vs 65-78]; 16×144×1024 35-39 vs 42-45 [64-76 vs
// 75-81]; 192³ 95-110 vs 112-125 [190-198 vs 169-208]; 256³ 227-335 vs 212-253
// [457-484 vs 314-339]; 384³ 842-1216 vs 564-678 [1540-1748 vs 964-1149]; 512³
// 2004-2262 vs 1366-1706; 4×8192×32 17-20 vs 150-182. Fan-out breaks even
// near 256³ and pays by 384³, so 1<<26 — 0.5 ms at this rate — still falls
// between the two. Both sets time panels that read b's rows at kk·ldb
// directly; reading them through the row table, the panels run the same
// products at the same rates (BenchmarkMatMul128, BenchmarkMatMulConvShapes).
const (
	asmParallelMinFlops = 1 << 26
	asmGrainFlops       = 1 << 23
)

func init() {
	if cpu.AVX2 && cpu.FMA && cpu.YMM {
		fma4Rows, gemmOffPanel, dotOffPanel, kernel = fma4RowsAVX2, gemmOffPanelAVX2, dotOffPanelAVX2, "avx2"
		if cpu.AVX512F && cpu.ZMM {
			gemmOffPanel, dotOffPanel, kernel = gemmOffPanelAVX512, dotOffPanelAVX512, "avx512"
			gemmOffSmallK = gemmOffSmallKAVX512
		}
		addSlice, axpySlice, scaleSlice, addScalarSlice = addSliceAsm, axpySliceAsm, scaleSliceAsm, addScalarSliceAsm
		sumPair = sumPairAsm
		sumSlice, reluMask, maskGrad = sumSliceAsm, reluMaskAVX2, maskGradAVX2
		sumF64, sumSqDevF64, sumDot = sumF64Asm, sumSqDevF64Asm, sumDotAVX2
		normalizePlane, planeGrad = normalizePlaneAVX2, planeGradAVX2
		sgdStep, sgdMomentumStep = sgdStepAsm, sgdMomentumStepAsm
		mmParallelMinFlops, mmGrainFlops = asmParallelMinFlops, asmGrainFlops
	}
}
