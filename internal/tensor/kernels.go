package tensor

import "math"

// Slice-level numeric kernels shared by the tensor methods, the matmul
// blocks, the layers of internal/nn and the fused optimizer step (sgd.go). Like the matmul inner loops they sit
// behind function values: bound to the Go loops below, and rebound at package
// init to AVX2 assembly where the CPU probe passes (kernels_amd64.go). The
// exported forms are for internal/nn, which has no assembly of its own.
//
// The Go loops are written so the compiler can keep bounds checks out of
// them: every loop ranges over one of its operand slices and the other
// operands are pre-sliced to the same length. Their 4-way unrolls shorten the
// loop-carried dependency per element, cut the loop overhead, and let the
// scheduler overlap independent multiply-adds.
//
// Numerics. The elementwise kernels keep exact per-element evaluation order
// on both bindings, every multiply and add rounded on its own, so
// Add/AXPY/Scale, SumInto, the ReLU mask and the two BatchNorm plane passes
// are bit-identical to the scalar loops they replace and between the
// bindings. The sums (sumSlice, sumF64, sumSqDevF64, sumDot)
// add the same terms in lane order under the assembly: any two orders of a
// sum of n terms differ by at most 2·n·u·Σ|xᵢ| (u = 2⁻²⁴ summing in float32,
// 2⁻⁵³ in float64), the bound kernels_test.go holds them to. Reassociation of
// products is confined to the matmul kernels (see matmul.go).
var (
	addSlice       = addSliceGo
	sumPair        = sumPairGo
	axpySlice      = axpySliceGo
	scaleSlice     = scaleSliceGo
	addScalarSlice = addScalarSliceGo
	sumSlice       = sumSliceGo
	maskNonNeg     = maskNonNegGo
	sumF64         = sumF64Go
	sumSqDevF64    = sumSqDevF64Go
	sumDot         = sumDotGo
	normalizePlane = normalizePlaneGo
	planeGrad      = planeGradGo
	// The fused optimizer step (sgd.go).
	sgdStep         = sgdStepGo
	sgdMomentumStep = sgdMomentumStepGo
)

// AddSlice performs dst[i] += src[i]; src must be at least as long as dst.
func AddSlice(dst, src []float32) { addSlice(dst, src[:len(dst)]) }

// AddScalarSlice performs dst[i] += s.
func AddScalarSlice(dst []float32, s float32) { addScalarSlice(s, dst) }

// SumSlice returns the float32 sum of x.
func SumSlice(x []float32) float32 { return sumSlice(x) }

// MaskNonNegative sets dst[i] to val[i] where !(sign[i] < 0) — NaN and both
// zeros keep val — and to +0 elsewhere: ReLU with val and sign both the
// input, its gradient with val the upstream gradient. val and sign must be at
// least as long as dst.
func MaskNonNegative(dst, val, sign []float32) {
	maskNonNeg(dst, val[:len(dst)], sign[:len(dst)])
}

// SumF64 returns the sum of x accumulated in float64.
func SumF64(x []float32) float64 { return sumF64(x) }

// SumSqDevF64 returns the sum of (x[i]-mean)² accumulated in float64.
func SumSqDevF64(x []float32, mean float64) float64 { return sumSqDevF64(x, mean) }

// SumDotF64 returns the sums of a[i] and of a[i]*b[i] accumulated in
// float64, in one pass; b must be at least as long as a.
func SumDotF64(a, b []float32) (sumA, sumAB float64) { return sumDot(a, b[:len(a)]) }

// NormalizePlane computes, in float64, xh = (x[i]-mean)*invStd and stores
// xhat[i] = float32(xh) and out[i] = float32(gamma*xh+beta): the normalise
// pass of batch normalization over one channel plane. A nil xhat keeps none.
// x and a non-nil xhat must be at least as long as out.
func NormalizePlane(out, xhat, x []float32, mean, invStd, gamma, beta float64) {
	if xhat == nil {
		xhat = out // stored first, overwritten by out
	}
	normalizePlane(out, xhat[:len(out)], x[:len(out)], mean, invStd, gamma, beta)
}

// NormalizeGradPlane stores dx[i] = float32(c*(n*dy[i] - sumDy -
// xhat[i]*sumDyXHat)), computed in float64: the input gradient of batch
// normalization over one channel plane. dy and xhat must be at least as long
// as dx.
func NormalizeGradPlane(dx, dy, xhat []float32, c, n, sumDy, sumDyXHat float64) {
	planeGrad(dx, dy[:len(dx)], xhat[:len(dx)], c, n, sumDy, sumDyXHat)
}

// addSliceGo performs dst[i] += src[i].
func addSliceGo(dst, src []float32) {
	_ = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// sumPairGo performs dst[i] = a[i] + b[i]: addSliceGo on a copy of a, in one
// pass.
func sumPairGo(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] = x[0] + y[0]
		d[1] = x[1] + y[1]
		d[2] = x[2] + y[2]
		d[3] = x[3] + y[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// subSlice performs dst[i] -= src[i].
func subSlice(dst, src []float32) {
	_ = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] -= s[0]
		d[1] -= s[1]
		d[2] -= s[2]
		d[3] -= s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] -= src[i]
	}
}

// axpySliceGo performs dst[i] += alpha * src[i].
func axpySliceGo(alpha float32, src, dst []float32) {
	_ = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] += alpha * s[0]
		d[1] += alpha * s[1]
		d[2] += alpha * s[2]
		d[3] += alpha * s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += alpha * src[i]
	}
}

// scaleSliceGo performs dst[i] *= s.
func scaleSliceGo(s float32, dst []float32) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		d[0] *= s
		d[1] *= s
		d[2] *= s
		d[3] *= s
	}
	for ; i < len(dst); i++ {
		dst[i] *= s
	}
}

// addScalarSliceGo performs dst[i] += s.
func addScalarSliceGo(s float32, dst []float32) {
	for i := range dst {
		dst[i] += s
	}
}

// sumSliceGo returns the sum of x, added in index order.
func sumSliceGo(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v
	}
	return s
}

// maskNonNegGo is MaskNonNegative's loop. Activation signs are close to a
// coin flip, so a branch per element mispredicts half the time; select
// through the bit pattern instead (-keep is all ones or zero), which gives
// the branch's result exactly.
func maskNonNegGo(dst, val, sign []float32) {
	val, sign = val[:len(dst)], sign[:len(dst)]
	for i, v := range sign {
		var keep uint32
		if !(v < 0) {
			keep = 1
		}
		dst[i] = math.Float32frombits(math.Float32bits(val[i]) & -keep)
	}
}

// sumF64Go returns the float64 sum of x, added in index order.
func sumF64Go(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// sumSqDevF64Go returns the float64 sum of (x[i]-mean)², in index order.
func sumSqDevF64Go(x []float32, mean float64) float64 {
	var s float64
	for _, v := range x {
		d := float64(v) - mean
		s += d * d
	}
	return s
}

// sumDotGo returns the float64 sums of a[i] and a[i]*b[i], in index order.
func sumDotGo(a, b []float32) (sumA, sumAB float64) {
	b = b[:len(a)]
	for i, v := range a {
		sumA += float64(v)
		sumAB += float64(v) * float64(b[i])
	}
	return sumA, sumAB
}

// normalizePlaneGo is NormalizePlane's loop; xhat may be out itself.
func normalizePlaneGo(out, xhat, x []float32, mean, invStd, gamma, beta float64) {
	xhat, x = xhat[:len(out)], x[:len(out)]
	for i, v := range x {
		xh := (float64(v) - mean) * invStd
		xhat[i] = float32(xh)
		out[i] = float32(gamma*xh + beta)
	}
}

// planeGradGo is NormalizeGradPlane's loop.
func planeGradGo(dx, dy, xhat []float32, c, n, sumDy, sumDyXHat float64) {
	dy, xhat = dy[:len(dx)], xhat[:len(dx)]
	for i, g := range dy {
		dx[i] = float32(c * (n*float64(g) - sumDy - float64(xhat[i])*sumDyXHat))
	}
}

// SumInto overwrites dst with the element-wise sum of srcs, accumulating in
// source order (dst = ((srcs[0]+srcs[1])+srcs[2])+…), so the result is
// bit-identical to copying srcs[0] and adding the rest one at a time — the
// contract the relay's fold relies on. The first two sources are summed in
// one pass that writes dst once; each later one is added in place. All
// tensors must share dst's shape; srcs must be non-empty.
func SumInto(dst *Tensor, srcs []*Tensor) *Tensor {
	if len(srcs) == 0 {
		panic("tensor: SumInto needs at least one source")
	}
	for _, s := range srcs {
		assertSameShape("SumInto", dst, s)
	}
	dd := dst.data
	if len(srcs) == 1 {
		copy(dd, srcs[0].data)
		return dst
	}
	sumPair(dd, srcs[0].data[:len(dd)], srcs[1].data[:len(dd)])
	for _, s := range srcs[2:] {
		addSlice(dd, s.data[:len(dd)])
	}
	return dst
}
