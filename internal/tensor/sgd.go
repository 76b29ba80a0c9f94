package tensor

import (
	"math"
	"sync"
)

// The fused SGD step of internal/optimizer, one parameter tensor at a time:
// the batch's gradient sum, the momentum update and the parameter write in
// one pass, so each gradient value is read exactly once.
// It sits behind the same seam as the slice kernels (kernels.go): sgdStep and
// sgdMomentumStep are bound to the Go loops below and rebound at package init
// to AVX2 assembly where the CPU probe passes.
//
// A gradient is read from where it arrived (Grad): float32 values, or the
// IEEE 754 half-precision values of an fp16 push, widened as they are read —
// VCVTPH2PS in the assembly, HalfTable in the Go loops. Widening is exact,
// so a half source is bit-identical to decoding it first and stepping from
// the float32 copy: the decode's signalling NaNs, which VCVTPH2PS quiets, are
// quieted by the first add either way.
//
// Numerics. Every multiply, add and subtract is rounded on its own, in one
// order on both bindings: g = Σgs with the batch summed in source order
// (((g0+g1)+g2)+…), v' = mu·v + g, dst = src − lr·g (or lr·v'). The bindings
// are bit-identical to each other and to cloning src, summing the batch with
// sequential adds and running the scalar optimizer step on the clone — the
// contract that lets the parameter store coalesce pushes without changing
// training dynamics.

// Grad is one gradient operand of the fused step: float32 values (F32), or
// when Half is non-nil half-precision values, two little-endian bytes each.
// The assembly reads it as laid out here: F32's header, then Half's.
type Grad struct {
	F32  []float32
	Half []byte
}

// SGDStep stores dst[i] = src[i] − lr·Σ_b gs[b][i]. dst may be src itself (an
// in-place update) or disjoint from it; gs must be non-empty, and src and
// every gs[b] at least as long as dst.
func SGDStep(dst, src []float32, gs []Grad, lr float32) {
	sgdCheck(dst, gs)
	sgdStep(dst, src[:len(dst)], gs, lr)
}

// SGDMomentumStep is SGDStep with momentum: v[i] = mu·v[i] + Σ_b gs[b][i],
// then dst[i] = src[i] − lr·v[i]. v must be at least as long as dst and alias
// neither dst nor src.
func SGDMomentumStep(dst, src, v []float32, gs []Grad, lr, mu float32) {
	sgdCheck(dst, gs)
	sgdMomentumStep(dst, src[:len(dst)], v[:len(dst)], gs, lr, mu)
}

// sgdCheck makes the bounds checks the kernels do not.
func sgdCheck(dst []float32, gs []Grad) {
	if len(gs) == 0 {
		panic("tensor: SGD step needs a non-empty batch")
	}
	for _, g := range gs {
		if g.Half != nil {
			_ = g.Half[:2*len(dst)]
		} else {
			_ = g.F32[:len(dst)]
		}
	}
}

// f32Batch returns the batch size when every source is float32 — the sizes
// the Go loops have unrolled bodies for — and 0, which takes the strip path,
// when one is half precision.
func f32Batch(gs []Grad) int {
	for _, g := range gs {
		if g.Half != nil {
			return 0
		}
	}
	return len(gs)
}

// halfToFloat widens one half-precision value, exactly; a NaN keeps its
// payload as it is, signalling or quiet.
func halfToFloat(h uint16) float32 {
	b := uint32(h&0x7fff) << 13
	switch b >> 23 {
	case 0: // zero or subnormal: mant·2^-24, exact in float32
		b = math.Float32bits(float32(b>>13) * (1.0 / (1 << 24)))
	case 0x1f: // Inf or NaN
		b |= 0xff << 23
	default:
		b += 112 << 23
	}
	return math.Float32frombits(uint32(h&0x8000)<<16 | b)
}

// HalfTable returns the half→float table: halfToFloat of every 16-bit pattern
// (256 KB), built on first use so that a program that never widens halves in
// Go never touches the pages. A table has no subnormal path and no branch:
// what a Go loop widening a converged model's gradients (1e-5 to 1e-7, the
// fp16 subnormal range) needs to cost the same at every magnitude.
func HalfTable() *[1 << 16]float32 { return halfTable() }

var halfTable = sync.OnceValue(func() *[1 << 16]float32 {
	t := new([1 << 16]float32)
	for h := range t {
		t[h] = halfToFloat(uint16(h))
	}
	return t
})

// at returns the source's value at element j.
func (g Grad) at(j int) float32 {
	if g.Half == nil {
		return g.F32[j]
	}
	return halfToFloat(uint16(g.Half[2*j]) | uint16(g.Half[2*j+1])<<8)
}

// strip returns the source's values over [start, end): the float32 values
// themselves, or the half ones widened into buf through HalfTable, four at a
// time over re-sliced windows so the bounds checks are paid once per window.
func (g Grad) strip(buf *sgdStrip, start, end int) []float32 {
	if g.Half == nil {
		return g.F32[start:end:end]
	}
	tab := halfTable()
	w := end - start
	out, half := buf[:w:w], g.Half[2*start:2*end]
	dst := out
	for len(dst) >= 4 {
		d, s := dst[:4:4], half[:8:8]
		d[0] = tab[uint16(s[0])|uint16(s[1])<<8]
		d[1] = tab[uint16(s[2])|uint16(s[3])<<8]
		d[2] = tab[uint16(s[4])|uint16(s[5])<<8]
		d[3] = tab[uint16(s[6])|uint16(s[7])<<8]
		dst, half = dst[4:], half[8:]
	}
	for i := range dst {
		dst[i] = tab[uint16(half[2*i])|uint16(half[2*i+1])<<8]
	}
	return out
}

// sgdMomentumStepGo is SGDMomentumStep's loop. Specialized small-batch
// bodies keep the common coalescing sizes branch-free in the inner loop.
func sgdMomentumStepGo(dd, sd, v []float32, gs []Grad, lr, mu float32) {
	sd = sd[:len(dd)]
	v = v[:len(dd)]
	switch f32Batch(gs) {
	case 1:
		g0 := gs[0].F32[:len(dd)]
		for j := range dd {
			vj := mu*v[j] + g0[j]
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	case 2:
		g0 := gs[0].F32[:len(dd)]
		g1 := gs[1].F32[:len(dd)]
		for j := range dd {
			vj := mu*v[j] + (g0[j] + g1[j])
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	case 3:
		g0 := gs[0].F32[:len(dd)]
		g1 := gs[1].F32[:len(dd)]
		g2 := gs[2].F32[:len(dd)]
		for j := range dd {
			vj := mu*v[j] + ((g0[j] + g1[j]) + g2[j])
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	case 4:
		g0 := gs[0].F32[:len(dd)]
		g1 := gs[1].F32[:len(dd)]
		g2 := gs[2].F32[:len(dd)]
		g3 := gs[3].F32[:len(dd)]
		for j := range dd {
			vj := mu*v[j] + (((g0[j] + g1[j]) + g2[j]) + g3[j])
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	default:
		var buf, half sgdStrip
		for start := 0; start < len(dd); start += len(buf) {
			end := min(start+len(buf), len(dd))
			sum := stripSum(&buf, &half, gs, start, end)
			db := dd[start:end:end]
			sb := sd[start:end:end]
			vb := v[start:end:end]
			for j, g := range sum {
				vj := mu*vb[j] + g
				vb[j] = vj
				db[j] = sb[j] - lr*vj
			}
		}
	}
}

// sgdStrip is the stack-resident strip buffer the Go loops sum wide batches
// and widen half sources in, a cache-line-friendly chunk at a time; element
// order within the strip sum still matches a sequential copy+Add pass exactly.
type sgdStrip [512]float32

// stripSum returns buf[:end-start] holding the in-order element-wise sum of
// gs over [start, end), a half source widened into half first. It runs
// under the Go binding only, where the bound addSlice is addSliceGo; calling
// that by name keeps both buffers on the caller's stack, which a call through
// the function value would not.
func stripSum(buf, half *sgdStrip, gs []Grad, start, end int) []float32 {
	w := end - start
	sum := buf[:w:w]
	copy(sum, gs[0].strip(half, start, end))
	for _, g := range gs[1:] {
		addSliceGo(sum, g.strip(half, start, end))
	}
	return sum
}

// sgdStepGo is SGDStep's loop, the momentum-free variant.
func sgdStepGo(dd, sd []float32, gs []Grad, lr float32) {
	sd = sd[:len(dd)]
	switch f32Batch(gs) {
	case 1:
		g0 := gs[0].F32[:len(dd)]
		for j := range dd {
			dd[j] = sd[j] - lr*g0[j]
		}
	case 2:
		g0 := gs[0].F32[:len(dd)]
		g1 := gs[1].F32[:len(dd)]
		for j := range dd {
			dd[j] = sd[j] - lr*(g0[j]+g1[j])
		}
	case 3:
		g0 := gs[0].F32[:len(dd)]
		g1 := gs[1].F32[:len(dd)]
		g2 := gs[2].F32[:len(dd)]
		for j := range dd {
			dd[j] = sd[j] - lr*((g0[j]+g1[j])+g2[j])
		}
	case 4:
		g0 := gs[0].F32[:len(dd)]
		g1 := gs[1].F32[:len(dd)]
		g2 := gs[2].F32[:len(dd)]
		g3 := gs[3].F32[:len(dd)]
		for j := range dd {
			dd[j] = sd[j] - lr*(((g0[j]+g1[j])+g2[j])+g3[j])
		}
	default:
		var buf, half sgdStrip
		for start := 0; start < len(dd); start += len(buf) {
			end := min(start+len(buf), len(dd))
			sum := stripSum(&buf, &half, gs, start, end)
			db := dd[start:end:end]
			sb := sd[start:end:end]
			for j, g := range sum {
				db[j] = sb[j] - lr*g
			}
		}
	}
}
