package compress

import (
	"math"

	"dssp/internal/tensor"
)

// Slice-at-a-time kernels of the value codecs (fp16, int8), behind one seam:
// the eight function values below. They are bound to F16C/AVX2 assembly
// (kernels_amd64.s) on CPUs that have it, once, at package init; the Go loops
// in this file are the portable binding (-tags purego, other architectures,
// older CPUs) and the reference the assembly is held to, bit for bit, on
// payload bytes and residuals alike (kernels_test.go). kernel names the
// binding that is live — "f16c" for the assembly, "go" for the loops below —
// for the benchmark names and /metrics.
var (
	encodeF16         = encodeF16Go
	encodeF16Feedback = encodeF16FeedbackGo
	decodeF16         = decodeF16Go
	maxAbs            = maxAbsGo
	addMaxAbs         = addMaxAbsGo
	encodeQ8          = encodeQ8Go
	encodeQ8Feedback  = encodeQ8FeedbackGo
	decodeQ8          = decodeQ8Go
	kernel            = "go"
)

// Kernel names the binding of the slice kernels: "f16c" or "go".
func Kernel() string { return kernel }

// Every Go loop below costs the same whatever the magnitudes it is fed: a
// converged model pushes gradients of 1e-5 to 1e-7, which is the fp16
// subnormal range, and a converter that branches or loops there is slower
// than the bytes it saves. The loops are unrolled four wide over re-sliced
// windows, so the bounds checks are paid once per window rather than once per
// value.

// halfTable is internal/tensor's half→float table (tensor.HalfTable), which
// the fused optimizer step widens half sources through too: one float32 per
// 16-bit pattern, built on first use.
var halfTable = tensor.HalfTable

const (
	absMask = 0x7fffffff
	// halfOverflowBits is float32 2^16: magnitudes from here up encode as
	// Inf (or NaN). Everything in [65520, 2^16] reaches Inf through the
	// rounding carry of halfFinite.
	halfOverflowBits = (127 + 16) << 23
	// halfNormalBits is float32 2^-14, the smallest normal half.
	halfNormalBits = 113 << 23
	// halfRebias moves a float32 exponent onto the half bias (−112, modulo
	// 2^32) and adds the round-to-nearest bias of the 13 dropped bits; the
	// tie-to-even bit is added separately.
	halfRebias = 0xC8000000 + 0xfff
	// halfMagic is 0.5, whose ulp is 2^-24 — the half subnormal step — so
	// adding it lets the FPU's own round-to-nearest-even do the subnormal
	// rounding, leaving the result in the low mantissa bits.
	halfMagic     = float32(0.5)
	halfMagicBits = 126 << 23
)

// halfFinite converts the bits of a float32 of magnitude at most 2^16 to IEEE
// 754 binary16 with round-to-nearest-even; magnitudes below half the smallest
// subnormal become signed zero. Nothing in it jumps: the normal and the
// subnormal encoding are both computed and the compiler picks one with a
// conditional move. It takes and returns bits to stay inside the inlining
// budget.
func halfFinite(b uint32) uint32 {
	u := b & absMask
	h := (u + halfRebias + (u>>13)&1) >> 13
	subnormal := math.Float32bits(math.Float32frombits(u)+halfMagic) - halfMagicBits
	if u < halfNormalBits {
		h = subnormal
	}
	return b>>16&0x8000 | h
}

// floatToHalf is halfFinite for any float32: overflow and Inf encode as
// infinity, NaN as the quiet NaN 0x7e00.
func floatToHalf(b uint32) uint32 {
	u := b & absMask
	if u > 0xff<<23 {
		return b>>16&0x8000 | 0x7e00
	}
	return halfFinite(b&^absMask | min(u, halfOverflowBits))
}

// encodeF16Go writes src as little-endian halfs into dst (2 bytes per value).
// Each window of four goes through halfFinite; one comparison per window
// sends a window holding an overflow, an Inf or a NaN — which finite gradients
// and weights never do — through floatToHalf instead.
func encodeF16Go(dst []byte, src []float32) {
	dst = dst[:2*len(src)]
	for len(src) >= 4 {
		s, d := src[:4:4], dst[:8:8]
		b0, b1, b2, b3 := math.Float32bits(s[0]), math.Float32bits(s[1]), math.Float32bits(s[2]), math.Float32bits(s[3])
		h0, h1, h2, h3 := halfFinite(b0), halfFinite(b1), halfFinite(b2), halfFinite(b3)
		if max(b0&absMask, b1&absMask, b2&absMask, b3&absMask) >= halfOverflowBits {
			h0, h1, h2, h3 = floatToHalf(b0), floatToHalf(b1), floatToHalf(b2), floatToHalf(b3)
		}
		d[0], d[1] = byte(h0), byte(h0>>8)
		d[2], d[3] = byte(h1), byte(h1>>8)
		d[4], d[5] = byte(h2), byte(h2>>8)
		d[6], d[7] = byte(h3), byte(h3>>8)
		src, dst = src[4:], dst[8:]
	}
	for i, v := range src {
		h := floatToHalf(math.Float32bits(v))
		dst[2*i], dst[2*i+1] = byte(h), byte(h>>8)
	}
}

// feedbackBlock is how many values encodeF16Feedback carries through its
// three sweeps at a time: 8 KB of residual, 8 KB of gradient and 4 KB of
// payload, which stay in the L1 cache from the first sweep to the last.
const feedbackBlock = 2048

// encodeF16FeedbackGo is the fused error-feedback pass of the fp16 codec: per
// element r += g, the sum is encoded into dst, and r keeps what the encoding
// lost (r −= decoded). Memory is streamed once — every cache line of r, g and
// dst is touched in one block — but the block is swept three times rather
// than converted and looked up in one loop body: a table load hanging off the
// end of the conversion's dependency chain exposes every L1 miss (5.3 ns per
// value on mixed magnitudes against 3.1 ns at any magnitude this way).
func encodeF16FeedbackGo(dst []byte, r, g []float32) {
	tab := halfTable()
	g, dst = g[:len(r)], dst[:2*len(r)]
	for len(r) > 0 {
		n := min(len(r), feedbackBlock)
		rb, gb, db := r[:n], g[:n], dst[:2*n]
		for i := range rb {
			rb[i] += gb[i]
		}
		encodeF16Go(db, rb)
		for len(rb) >= 4 {
			d, s := rb[:4:4], db[:8:8]
			d[0] -= tab[uint16(s[0])|uint16(s[1])<<8]
			d[1] -= tab[uint16(s[2])|uint16(s[3])<<8]
			d[2] -= tab[uint16(s[4])|uint16(s[5])<<8]
			d[3] -= tab[uint16(s[6])|uint16(s[7])<<8]
			rb, db = rb[4:], db[8:]
		}
		for i := range rb {
			rb[i] -= tab[uint16(db[2*i])|uint16(db[2*i+1])<<8]
		}
		r, g, dst = r[n:], g[n:], dst[2*n:]
	}
}

// decodeF16Go expands little-endian halfs from src into dst (exact).
func decodeF16Go(dst []float32, src []byte) {
	tab := halfTable()
	src = src[:2*len(dst)]
	for len(dst) >= 4 {
		d, s := dst[:4:4], src[:8:8]
		d[0] = tab[uint16(s[0])|uint16(s[1])<<8]
		d[1] = tab[uint16(s[2])|uint16(s[3])<<8]
		d[2] = tab[uint16(s[4])|uint16(s[5])<<8]
		d[3] = tab[uint16(s[6])|uint16(s[7])<<8]
		dst, src = dst[4:], src[8:]
	}
	for i := range dst {
		dst[i] = tab[uint16(src[2*i])|uint16(src[2*i+1])<<8]
	}
}

// maxAbsGo returns the largest magnitude in data; NaN entries never win.
func maxAbsGo(data []float32) float32 {
	var m float32
	for _, v := range data {
		if a := math.Float32frombits(math.Float32bits(v) & 0x7fffffff); a > m {
			m = a
		}
	}
	return m
}

// addMaxAbsGo is the first fused pass of the int8 error-feedback encode:
// r += g, returning the largest magnitude of the sum.
func addMaxAbsGo(r, g []float32) float32 {
	g = g[:len(r)]
	var m float32
	for i := range r {
		v := r[i] + g[i]
		r[i] = v
		if a := math.Float32frombits(math.Float32bits(v) & 0x7fffffff); a > m {
			m = a
		}
	}
	return m
}

const (
	// roundMagic is 1.5·2^23: a float32 in [2^23, 2^24) has an ulp of one, so
	// adding it to |x| < 2^22 makes the FPU round x to the nearest integer,
	// ties to even (the magic is even, so the sum's parity is x's), and
	// leaves that integer in the low mantissa bits. This is
	// math.RoundToEven(float64(x)) without the float64 round trip.
	roundMagic     = float32(3 << 22)
	roundMagicBits = 0x4B400000
)

// quantize returns round-to-even(v/scale) clamped to [-127, 127].
func quantize(v, scale float32) int32 {
	q := int32(math.Float32bits(v/scale+roundMagic)) - roundMagicBits
	return max(-127, min(127, q))
}

// encodeQ8Go writes round(src/scale) as two's-complement bytes into dst.
func encodeQ8Go(dst []byte, src []float32, scale float32) {
	dst = dst[:len(src)]
	for len(src) >= 4 {
		s, d := src[:4:4], dst[:4:4]
		d[0] = byte(quantize(s[0], scale))
		d[1] = byte(quantize(s[1], scale))
		d[2] = byte(quantize(s[2], scale))
		d[3] = byte(quantize(s[3], scale))
		src, dst = src[4:], dst[4:]
	}
	for i, v := range src {
		dst[i] = byte(quantize(v, scale))
	}
}

// encodeQ8FeedbackGo is the second fused pass of the int8 error-feedback
// encode: r is quantized into dst and keeps the quantization error.
func encodeQ8FeedbackGo(dst []byte, r []float32, scale float32) {
	dst = dst[:len(r)]
	for len(r) >= 4 {
		rs, d := r[:4:4], dst[:4:4]
		q0, q1, q2, q3 := quantize(rs[0], scale), quantize(rs[1], scale), quantize(rs[2], scale), quantize(rs[3], scale)
		d[0], d[1], d[2], d[3] = byte(q0), byte(q1), byte(q2), byte(q3)
		rs[0] -= float32(q0) * scale
		rs[1] -= float32(q1) * scale
		rs[2] -= float32(q2) * scale
		rs[3] -= float32(q3) * scale
		r, dst = r[4:], dst[4:]
	}
	for i, v := range r {
		q := quantize(v, scale)
		dst[i] = byte(q)
		r[i] = v - float32(q)*scale
	}
}

// decodeQ8Go expands two's-complement bytes from src into dst, times scale.
func decodeQ8Go(dst []float32, src []byte, scale float32) {
	src = src[:len(dst)]
	for len(dst) >= 4 {
		d, s := dst[:4:4], src[:4:4]
		d[0] = float32(int8(s[0])) * scale
		d[1] = float32(int8(s[1])) * scale
		d[2] = float32(int8(s[2])) * scale
		d[3] = float32(int8(s[3])) * scale
		dst, src = dst[4:], src[4:]
	}
	for i := range dst {
		dst[i] = float32(int8(src[i])) * scale
	}
}
