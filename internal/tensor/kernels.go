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
// Add/AXPY/Scale, SumInto, the ReLU passes and the two BatchNorm plane
// passes are bit-identical to the scalar loops they replace and between the
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
	reluMask       = reluMaskGo
	maskGrad       = maskGradGo
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

// A ReLU mask is one bit per element, bit i of word i/64 for element i: set
// where the ReLU let the element through, !(v < 0), so NaN and both zeros
// pass. A mask and a bit offset name a run of elements; the mask must hold
// every bit of the run. The kernels that write one set the bits of the
// elements that pass and leave the others as they were, so whoever starts a
// mask clears it.

// ReLUMask sets out[i] to x[i] where it passes and to +0 elsewhere and,
// unless mask is nil, overwrites mask with the bits of x, from bit 0. x must
// be at least as long as out.
func ReLUMask(out, x []float32, mask []uint64) {
	if mask != nil {
		mask = mask[:(len(out)+63)/64]
		clear(mask)
	}
	reluMask(out, x[:len(out)], mask)
}

// MaskGrad sets dx[i] to dy[i] where bit+i of mask is set and to +0
// elsewhere — a ReLU's input gradient — or, with add, adds that to dx[i].
// dy must be at least as long as dx.
func MaskGrad(dx, dy []float32, mask []uint64, bit int, add bool) {
	maskGrad(dx, dy[:len(dx)], maskRun(mask, bit, len(dx)), bit, add)
}

// maskRun returns mask after checking that it holds bits [bit, bit+n).
func maskRun(mask []uint64, bit, n int) []uint64 {
	if mask != nil && n > 0 {
		_ = mask[(bit+n-1)>>6]
	}
	return mask
}

// SumF64 returns the sum of x accumulated in float64.
func SumF64(x []float32) float64 { return sumF64(x) }

// SumSqDevF64 returns the sum of (x[i]-mean)² accumulated in float64.
func SumSqDevF64(x []float32, mean float64) float64 { return sumSqDevF64(x, mean) }

// SumDotF64 returns the sums of a[i] and of a[i]*b[i] accumulated in
// float64, in one pass, a read through the mask from bit on (a nil mask
// reads it as it is); b must be at least as long as a.
func SumDotF64(a, b []float32, mask []uint64, bit int) (sumA, sumAB float64) {
	return sumDot(a, b[:len(a)], maskRun(mask, bit, len(a)), bit)
}

// NormalizePlane runs the normalise pass of batch normalization over one
// channel plane of x, width values a row: in float64, xh = (x[i]-mean)*invStd
// and y = gamma*xh+beta; it stores xhat[i] = float32(xh) (a nil xhat keeps
// none) and out = float32(y), plus sc[i] in float32 where sc is not nil,
// through a ReLU with relu. Row r of the output starts at out[r*stride:],
// and a non-nil mask gets the ReLU's bits from bit on (relu must be set).
// len(x) must be a multiple of width; xhat and sc, where not nil, as long as
// x; sc may be out itself when stride is width.
func NormalizePlane(out []float32, stride, width int, xhat, x, sc []float32, mask []uint64, bit int, relu bool, mean, invStd, gamma, beta float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if stride == width {
		stride, width = n, n
	}
	if width <= 0 || n%width != 0 || stride < width || mask != nil && !relu {
		panic("tensor: NormalizePlane got an inconsistent layout")
	}
	_ = out[(n/width-1)*stride+width-1]
	if xhat != nil {
		xhat = xhat[:n]
	}
	if sc != nil {
		sc = sc[:n]
	}
	normalizePlane(out, stride, width, xhat, x, sc, maskRun(mask, bit, n), bit, relu, mean, invStd, gamma, beta)
}

// NormalizeGradPlane stores dx[i] = float32(c*(n*dy[i] - sumDy -
// xhat[i]*sumDyXHat)), computed in float64, dy read through the mask from
// bit on (a nil mask reads it as it is): the input gradient of batch
// normalization over one channel plane. dy and xhat must be at least as long
// as dx; dy may be dx itself.
func NormalizeGradPlane(dx, dy, xhat []float32, mask []uint64, bit int, c, n, sumDy, sumDyXHat float64) {
	planeGrad(dx, dy[:len(dx)], xhat[:len(dx)], maskRun(mask, bit, len(dx)), bit, c, n, sumDy, sumDyXHat)
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

// passes returns 1 where a ReLU lets v through — !(v < 0), so NaN and both
// zeros — and 0 elsewhere.
func passes(v float32) uint64 {
	if v < 0 {
		return 0
	}
	return 1
}

// keep returns v where b is 1 and +0 where it is 0. Activation signs are close
// to a coin flip, so a branch would mispredict half the time; -b is all ones
// or zero, and selects through the bit pattern instead.
func keep(v float32, b uint64) float32 {
	return math.Float32frombits(math.Float32bits(v) & -uint32(b))
}

// maskBit returns bit i of mask.
func maskBit(mask []uint64, i int) uint64 { return mask[i>>6] >> (i & 63) & 1 }

// reluMaskGo is ReLUMask's loop, on a cleared mask.
func reluMaskGo(out, x []float32, mask []uint64) {
	x = x[:len(out)]
	for i, v := range x {
		p := passes(v)
		out[i] = keep(v, p)
		if mask != nil {
			mask[i>>6] |= p << (i & 63)
		}
	}
}

// maskGradGo is MaskGrad's loop.
func maskGradGo(dx, dy []float32, mask []uint64, bit int, add bool) {
	dy = dy[:len(dx)]
	for i, g := range dy {
		v := keep(g, maskBit(mask, bit+i))
		if add {
			dx[i] += v
		} else {
			dx[i] = v
		}
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

// sumDotGo returns the float64 sums of a[i] and a[i]*b[i], in index order,
// a read through the mask unless it is nil.
func sumDotGo(a, b []float32, mask []uint64, bit int) (sumA, sumAB float64) {
	b = b[:len(a)]
	for i, v := range a {
		if mask != nil {
			v = keep(v, maskBit(mask, bit+i))
		}
		sumA += float64(v)
		sumAB += float64(v) * float64(b[i])
	}
	return sumA, sumAB
}

// normalizePlaneGo is NormalizePlane's loop, row by row.
func normalizePlaneGo(out []float32, stride, width int, xhat, x, sc []float32, mask []uint64, bit int, relu bool, mean, invStd, gamma, beta float64) {
	for r := 0; r*width < len(x); r++ {
		row := out[r*stride:][:width]
		for j, v := range x[r*width:][:width] {
			i := r*width + j
			xh := (float64(v) - mean) * invStd
			if xhat != nil {
				xhat[i] = float32(xh)
			}
			y := float32(gamma*xh + beta)
			if sc != nil {
				y += sc[i]
			}
			if relu {
				p := passes(y)
				y = keep(y, p)
				if mask != nil {
					mask[(bit+i)>>6] |= p << ((bit + i) & 63)
				}
			}
			row[j] = y
		}
	}
}

// planeGradGo is NormalizeGradPlane's loop.
func planeGradGo(dx, dy, xhat []float32, mask []uint64, bit int, c, n, sumDy, sumDyXHat float64) {
	dy, xhat = dy[:len(dx)], xhat[:len(dx)]
	for i, g := range dy {
		if mask != nil {
			g = keep(g, maskBit(mask, bit+i))
		}
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
