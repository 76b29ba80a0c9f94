package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dssp/internal/tensor"
)

// The scalar converters the kernels replaced, kept as the reference every
// kernel must match bit for bit.

// refF32ToF16 converts a float32 to IEEE 754 binary16 with
// round-to-nearest-even, mapping overflow to infinity and values below the
// smallest subnormal half to signed zero.
func refF32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	mant := b & 0x7fffff
	if exp == 0xff { // Inf or NaN
		if mant != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	e := exp - 127 + 15
	if e >= 0x1f { // overflow → Inf
		return sign | 0x7c00
	}
	if e <= 0 { // half subnormal (or zero)
		if e < -10 {
			return sign
		}
		mant |= 0x800000 // make the implicit leading bit explicit
		shift := uint32(14 - e)
		m := (mant + (1 << (shift - 1)) - 1 + ((mant >> shift) & 1)) >> shift
		return sign | uint16(m)
	}
	m := mant + 0xfff + ((mant >> 13) & 1)
	if m&0x800000 != 0 { // mantissa rounding carried into the exponent
		m = 0
		e++
		if e >= 0x1f {
			return sign | 0x7c00
		}
	}
	return sign | uint16(e)<<10 | uint16(m>>13)
}

// refF16ToF32 converts an IEEE 754 binary16 value to float32 (exact).
func refF16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal half: renormalize into a float32 exponent.
		e := uint32(113)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (mant&0x3ff)<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	}
	return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
}

// refPackF16 is the replaced packF16: one scalar conversion per value, the
// rounding error written back when residual is set.
func refPackF16(data []float32, residual bool) []byte {
	payload := make([]byte, 2*len(data))
	for i, v := range data {
		h := refF32ToF16(v)
		binary.LittleEndian.PutUint16(payload[2*i:], h)
		if residual {
			data[i] = v - refF16ToF32(h)
		}
	}
	return payload
}

// refPackQ8 is the replaced packQ8: float64 RoundToEven per value.
func refPackQ8(data []float32, residual bool) (payload []byte, scale float32) {
	var maxAbs float32
	for _, v := range data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	payload = make([]byte, len(data))
	scale = maxAbs / 127
	if scale == 0 {
		if residual {
			clear(data)
		}
		return payload, 0
	}
	for i, v := range data {
		q := int32(math.RoundToEven(float64(v / scale)))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		payload[i] = byte(int8(q))
		if residual {
			data[i] = v - float32(q)*scale
		}
	}
	return payload, scale
}

// The tests below run against whatever the eight kernel function values are
// bound to: the F16C/AVX2 assembly where the probe passed, the Go loops under
// -tags purego (make portable) or on other hardware. Either must match the
// scalar reference bit for bit.

// TestDecodeF16MatchesScalarReference sends every half — signalling NaNs
// included, which the hardware conversion alone would quiet — through the
// table and through the slice kernel.
func TestDecodeF16MatchesScalarReference(t *testing.T) {
	tab := halfTable()
	src := make([]byte, 2<<16)
	for h := 0; h < 1<<16; h++ {
		binary.LittleEndian.PutUint16(src[2*h:], uint16(h))
	}
	dec := make([]float32, 1<<16)
	decodeF16(dec, src)
	for h := 0; h < 1<<16; h++ {
		want := math.Float32bits(refF16ToF32(uint16(h)))
		if got := math.Float32bits(tab[h]); got != want {
			t.Fatalf("half %#04x: table %#08x, reference %#08x", h, got, want)
		}
		if got := math.Float32bits(dec[h]); got != want {
			t.Fatalf("half %#04x: decodeF16 %#08x, reference %#08x", h, got, want)
		}
	}
}

// TestFloatToHalfMatchesScalarReference compares the slice kernel encodeF16
// with the scalar reference over every float32 bit pattern, sweepChunk
// patterns a call. Under -short it covers a stride-7 sample of the patterns
// plus a window around every exponent boundary; under the race detector,
// which slows the sweep tenfold and has no concurrency to inspect here, a
// stride-61 sample.
func TestFloatToHalfMatchesScalarReference(t *testing.T) {
	const sweepChunk = 1 << 12
	// sweep encodes next(0), next(1), … next(n-1) and reports the first
	// pattern whose half differs from the reference.
	sweep := func(src []float32, dst []byte, n int, next func(i int) uint32) bool {
		for i := 0; i < n; i++ {
			src[i] = math.Float32frombits(next(i))
		}
		encodeF16(dst[:2*n], src[:n])
		for i := 0; i < n; i++ {
			got, want := binary.LittleEndian.Uint16(dst[2*i:]), refF32ToF16(src[i])
			if got != want {
				t.Errorf("float %#08x (%g): kernel %#04x, reference %#04x", next(i), src[i], got, want)
				return false
			}
		}
		return true
	}
	src, dst := make([]float32, sweepChunk), make([]byte, 2*sweepChunk)
	for e := uint32(0); e < 512; e++ { // sign and exponent
		for d := uint32(0); d < 1<<14; d += sweepChunk / 2 {
			if !sweep(src, dst, sweepChunk, func(i int) uint32 {
				if i%2 == 0 {
					return e<<23 + d + uint32(i/2)
				}
				return e<<23 - 1 - d - uint32(i/2)
			}) {
				return
			}
		}
	}
	stride := uint64(1)
	switch {
	case raceEnabled:
		stride = 61
	case testing.Short():
		stride = 7
	}
	workers := runtime.GOMAXPROCS(0)
	span := uint64(1<<32) / uint64(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := uint64(w)*span, uint64(w+1)*span
		if w == workers-1 {
			hi = 1 << 32
		}
		lo += (stride - lo%stride) % stride
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, dst := make([]float32, sweepChunk), make([]byte, 2*sweepChunk)
			for b := lo; b < hi; b += sweepChunk * stride {
				n := int(min(sweepChunk, (hi-b+stride-1)/stride))
				if !sweep(src, dst, n, func(i int) uint32 { return uint32(b + uint64(i)*stride) }) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// kernelInputs returns value sets that reach every path of the fp16 and int8
// kernels: the magnitudes of a converged model's gradients (fp16 subnormals),
// ordinary weights, overflow, ties, signed zeros, and lengths that are not a
// multiple of the unroll width.
func kernelInputs(rng *rand.Rand) [][]float32 {
	var out [][]float32
	for _, scale := range []float64{1e-7, 1e-5, 0.1, 1, 3e4, 1e6} {
		for _, n := range []int{1, 3, 4, 7, 64, 1001} {
			vs := make([]float32, n)
			for i := range vs {
				vs[i] = float32(rng.NormFloat64() * scale)
			}
			out = append(out, vs)
		}
	}
	return append(out,
		[]float32{0, negZero, 0, negZero, 1, -1},
		[]float32{float32(math.Inf(1)), float32(math.Inf(-1)), 65504, 65519.99, 65520, -65520, 1e30},
		[]float32{1e-5, float32(math.NaN()), -1e-5, 3, 1, 2, 3, 4, 65536, 5},
		[]float32{5.9604645e-8, 2.9802322e-8, 2.9802326e-8, 8.940697e-8, 6.1035156e-5, 6.0975552e-5},
	)
}

// kernelSpecials are the values a vector kernel could treat differently from
// the Go loops: NaNs with payloads (quiet and signalling, both signs — the
// hardware conversions carry payload bits the Go encoder drops), infinities,
// the two sides of the fp16 overflow threshold, signed zeros, and float32
// subnormals.
var kernelSpecials = []float32{
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffffffff),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xffa00000),
	math.Float32frombits(0x7f801fff), // signalling, payload below the half mantissa
	float32(math.Inf(1)), float32(math.Inf(-1)),
	65519.99, 65520, -65519.99, -65520, 65504, 1e30,
	0, negZero,
	1e-40, -1e-41, math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
}

func finite(vs []float32) bool {
	return !slices.ContainsFunc(vs, func(v float32) bool { return v != v || math.IsInf(float64(v), 0) })
}

// specialWindows plants every special value at every position of a 19-value
// set (two whole windows of eight, each lane once, and a tail), among
// ordinary values and among gradient-sized ones.
func specialWindows(rng *rand.Rand) [][]float32 {
	var out [][]float32
	for _, scale := range []float64{1, 1e-6} {
		for _, sp := range kernelSpecials {
			for pos := 0; pos < 19; pos++ {
				vs := make([]float32, 19)
				for i := range vs {
					vs[i] = float32(rng.NormFloat64() * scale)
				}
				vs[pos] = sp
				out = append(out, vs)
			}
		}
	}
	return out
}

// sweepFill draws the values of the length × misalignment sweep: mostly
// ordinary magnitudes at one of three scales, with a special (when the codec
// can carry it) one time in six.
func sweepFill(rng *rand.Rand, n int, specials []float32) []float32 {
	scale := []float64{1, 1e-5, 3e4}[rng.Intn(3)]
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = float32(rng.NormFloat64() * scale)
		if rng.Intn(6) == 0 {
			vs[i] = specials[rng.Intn(len(specials))]
		}
	}
	return vs
}

const guardByte = 0xA5

// carveBytes returns n bytes starting off bytes past an 8-byte boundary —
// every alignment a packed payload can have inside a frame body — between
// guard bytes; intact reports that no guard byte was written.
func carveBytes(n, off int) (b []byte, intact func() bool) {
	backing := make([]byte, 8+off+n+16)
	for i := range backing {
		backing[i] = guardByte
	}
	start := off + 8 - int(uintptr(unsafe.Pointer(&backing[0]))%8)
	b = backing[start : start+n : start+n]
	return b, func() bool {
		for i, v := range backing {
			if (i < start || i >= start+n) && v != guardByte {
				return false
			}
		}
		return true
	}
}

// carveFloats is carveBytes for a float32 operand: a copy of vs starting off
// floats past a 32-byte boundary (every alignment a vector load can see),
// between guard words.
func carveFloats(vs []float32, off int) (f []float32, intact func() bool) {
	guard := math.Float32frombits(0xDEADBEEF)
	backing := make([]float32, 8+off+len(vs)+8)
	for i := range backing {
		backing[i] = guard
	}
	start := off + 8 - int(uintptr(unsafe.Pointer(&backing[0]))%32/4)
	f = backing[start : start+len(vs) : start+len(vs)]
	copy(f, vs)
	return f, func() bool {
		for i, v := range backing {
			if (i < start || i >= start+len(vs)) && math.Float32bits(v) != math.Float32bits(guard) {
				return false
			}
		}
		return true
	}
}

// sameResidual reports bit equality, or that both are NaN: a NaN residual is
// a NaN under every binding, but which payload survives an operation on two
// NaNs is the operand order the compiler chose, not something the codec
// defines.
func sameResidual(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (got != got && want != want)
}

// residualFor returns the error-feedback buffer the tests fold vs into:
// values of vs's own magnitudes, NaNs and infinities included, so that a sum
// of two NaNs occurs too.
func residualFor(vs []float32) []float32 {
	r := make([]float32, len(vs))
	for i := range r {
		r[i] = vs[len(vs)-1-i] / 3
	}
	return r
}

// checkF16 runs the three fp16 kernels on vs, with the float operands off
// floats and the payload off bytes into their alignment period, against the
// scalar reference, and checks that nothing outside the operands was written.
func checkF16(t *testing.T, vs []float32, off int) {
	t.Helper()
	src, srcIntact := carveFloats(vs, off)
	got, gotIntact := carveBytes(2*len(vs), off)
	want := refPackF16(append([]float32(nil), vs...), false)
	encodeF16(got, src)
	if string(got) != string(want) {
		t.Fatalf("off %d: encodeF16(%v) = %x, reference %x", off, vs, got, want)
	}

	dec, decIntact := carveFloats(make([]float32, len(vs)), (off+3)%8)
	decodeF16(dec, got)
	for i := range dec {
		h := binary.LittleEndian.Uint16(got[2*i:])
		if math.Float32bits(dec[i]) != math.Float32bits(refF16ToF32(h)) {
			t.Fatalf("off %d: decodeF16 value %d of %v: %g, reference %g", off, i, vs, dec[i], refF16ToF32(h))
		}
	}

	// Fused feedback pass against add-then-pack-with-write-back.
	r, rIntact := carveFloats(residualFor(vs), (off+5)%8)
	refR := residualFor(vs)
	for i := range refR {
		refR[i] += vs[i]
	}
	want = refPackF16(refR, true)
	encodeF16Feedback(got, r, src)
	if string(got) != string(want) {
		t.Fatalf("off %d: encodeF16Feedback(%v) = %x, reference %x", off, vs, got, want)
	}
	for i := range r {
		if !sameResidual(r[i], refR[i]) {
			t.Fatalf("off %d: encodeF16Feedback residual %d of %v: %g, reference %g", off, i, vs, r[i], refR[i])
		}
	}
	if !srcIntact() || !gotIntact() || !decIntact() || !rIntact() {
		t.Fatalf("off %d, %d values: an fp16 kernel wrote outside its operands", off, len(vs))
	}
}

func TestF16KernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, vs := range kernelInputs(rng) {
		checkF16(t, vs, 0)
	}
	for _, vs := range specialWindows(rng) {
		checkF16(t, vs, 1)
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			checkF16(t, sweepFill(rng, n, kernelSpecials), off)
		}
	}
}

// checkQ8 is checkF16 for the five int8 kernels, driven the way packQ8 and
// packQ8Feedback drive them. Finite inputs only: int8 cannot carry Inf or
// NaN, and what the replaced code made of them (int32 of a NaN) was
// platform-defined.
func checkQ8(t *testing.T, vs []float32, off int) {
	t.Helper()
	src, srcIntact := carveFloats(vs, off)
	got, gotIntact := carveBytes(len(vs), off)
	want, wantScale := refPackQ8(append([]float32(nil), vs...), false)
	scale := maxAbs(src) / 127
	if scale != wantScale {
		t.Fatalf("off %d: maxAbs(%v)/127 = %g, reference scale %g", off, vs, scale, wantScale)
	}
	clear(got)
	if scale != 0 {
		encodeQ8(got, src, scale)
	}
	if string(got) != string(want) {
		t.Fatalf("off %d: encodeQ8(%v) = %x scale %g, reference %x", off, vs, got, scale, want)
	}
	dec, decIntact := carveFloats(make([]float32, len(vs)), (off+3)%8)
	decodeQ8(dec, got, scale)
	for i := range dec {
		if ref := float32(int8(want[i])) * wantScale; math.Float32bits(dec[i]) != math.Float32bits(ref) {
			t.Fatalf("off %d: decodeQ8 value %d of %v: %g, reference %g", off, i, vs, dec[i], ref)
		}
	}

	r, rIntact := carveFloats(residualFor(vs), (off+5)%8)
	refR := residualFor(vs)
	for i := range refR {
		refR[i] += vs[i]
	}
	want, wantScale = refPackQ8(refR, true)
	scale = addMaxAbs(r, src) / 127
	if scale != wantScale {
		t.Fatalf("off %d: addMaxAbs(%v)/127 = %g, reference scale %g", off, vs, scale, wantScale)
	}
	clear(got)
	if scale == 0 {
		clear(r)
	} else {
		encodeQ8Feedback(got, r, scale)
	}
	if string(got) != string(want) {
		t.Fatalf("off %d: encodeQ8Feedback(%v) = %x scale %g, reference %x", off, vs, got, scale, want)
	}
	for i := range r {
		if math.Float32bits(r[i]) != math.Float32bits(refR[i]) {
			t.Fatalf("off %d: encodeQ8Feedback residual %d of %v: %g, reference %g", off, i, vs, r[i], refR[i])
		}
	}
	if !srcIntact() || !gotIntact() || !decIntact() || !rIntact() {
		t.Fatalf("off %d, %d values: an int8 kernel wrote outside its operands", off, len(vs))
	}
}

func TestQ8KernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inputs := slices.DeleteFunc(kernelInputs(rng), func(vs []float32) bool { return !finite(vs) })
	// Exact ties and the clamp edge: with maxAbs 127 the scale is exactly 1.
	inputs = append(inputs,
		[]float32{127, -127, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -126.5, 0.49999997, 0},
		[]float32{254, -254, 1, 3, 5, -1, -3, 253, 127, 0},
		[]float32{0, 0, 0},
		[]float32{1e-45, -1e-45, 0}, // maxAbs/127 underflows to a zero scale
		// The same ties, and the clamp, in every lane of whole windows.
		[]float32{127, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -126.5, -127, 3.5, -3.5, 63.5, -63.5, 0, negZero, 1},
	)
	for _, vs := range inputs {
		checkQ8(t, vs, 0)
	}
	finiteSpecials := slices.DeleteFunc(slices.Clone(kernelSpecials), func(v float32) bool { return !finite([]float32{v}) })
	for _, vs := range specialWindows(rng) {
		if finite(vs) {
			checkQ8(t, vs, 1)
		}
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			checkQ8(t, sweepFill(rng, n, finiteSpecials), off)
		}
	}
}

// TestQ8KernelEdges pins the two behaviours of the int8 kernels that packQ8's
// own scale never reaches: a NaN is never the maximum, and a quotient beyond
// ±127 — possible only under a caller's scale — is clamped to ±127, never
// −128, with the residual taken against the clamped value.
func TestQ8KernelEdges(t *testing.T) {
	nan := float32(math.NaN())
	for pos := 0; pos < 19; pos++ {
		vs := make([]float32, 19)
		for i := range vs {
			vs[i] = float32(i%5) - 2
		}
		vs[pos], vs[(pos+7)%19] = nan, -7
		if m := maxAbs(vs); m != 7 {
			t.Fatalf("maxAbs with a NaN at %d = %g, want 7", pos, m)
		}
		r := make([]float32, len(vs))
		if m := addMaxAbs(r, vs); m != 7 {
			t.Fatalf("addMaxAbs with a NaN at %d = %g, want 7", pos, m)
		}
	}
	if m := maxAbs([]float32{nan, nan, nan, nan, nan, nan, nan, nan, nan}); m != 0 {
		t.Fatalf("maxAbs of NaNs = %g, want 0", m)
	}

	vs := []float32{300, -300, 128, -128, 127.5, -127.5, 127.49, -127.49, 1e9, -1e9, 128.5, -128.5, 2, -2, 0, 129, -129, 127, -127}
	want := make([]byte, len(vs))
	wantR := make([]float32, len(vs))
	for i, v := range vs {
		q := max(-127, min(127, int32(math.RoundToEven(float64(v)))))
		want[i], wantR[i] = byte(q), v-float32(q)
	}
	got := make([]byte, len(vs))
	encodeQ8(got, vs, 1)
	if string(got) != string(want) {
		t.Fatalf("encodeQ8 beyond the clamp = %x, want %x", got, want)
	}
	r := slices.Clone(vs)
	encodeQ8Feedback(got, r, 1)
	if string(got) != string(want) || !slices.Equal(r, wantR) {
		t.Fatalf("encodeQ8Feedback beyond the clamp = %x residual %v, want %x residual %v", got, r, want, wantR)
	}
}

// TestQ8PackMatchesScalarReference holds the tensor-level glue over the int8
// kernels (the zero-scale cases in particular) to the reference.
func TestQ8PackMatchesScalarReference(t *testing.T) {
	for _, vs := range [][]float32{
		{127, -127, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -126.5, 0.49999997, 0},
		{0, 0, 0},
		{1e-45, -1e-45, 0},
	} {
		want, wantScale := refPackQ8(append([]float32(nil), vs...), false)
		var p Packed
		packQ8(&p, tensor.FromSlice(vs, len(vs)))
		if p.Scale != wantScale || string(p.Payload) != string(want) {
			t.Fatalf("packQ8(%v) = %x scale %g, reference %x scale %g", vs, p.Payload, p.Scale, want, wantScale)
		}
		r, refR := residualFor(vs), residualFor(vs)
		for i := range refR {
			refR[i] += vs[i]
		}
		want, wantScale = refPackQ8(refR, true)
		packQ8Feedback(&p, tensor.FromSliceOwned(r, len(r)), tensor.FromSlice(vs, len(vs)))
		if p.Scale != wantScale || string(p.Payload) != string(want) {
			t.Fatalf("packQ8Feedback(%v) = %x scale %g, reference %x scale %g", vs, p.Payload, p.Scale, want, wantScale)
		}
		for i := range r {
			if math.Float32bits(r[i]) != math.Float32bits(refR[i]) {
				t.Fatalf("packQ8Feedback residual %d of %v: %g, reference %g", i, vs, r[i], refR[i])
			}
		}
	}
}

// TestFirstCompressMatchesCloneSemantics pins the −0 residual start: the
// first push of a tensor must encode the gradient itself, signed zeros
// included, exactly as the replaced "residual = clone of g" did.
func TestFirstCompressMatchesCloneSemantics(t *testing.T) {
	g := tensor.FromSlice([]float32{float32(math.Copysign(0, -1)), 0, -1.5, 3e-6}, 4)
	c, err := NewCompressor(Config{Codec: FP16})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Compress([]*tensor.Tensor{g})[0].Payload
	want := refPackF16(append([]float32(nil), g.Data()...), false)
	if string(got) != string(want) {
		t.Fatalf("first fp16 push = %x, want %x", got, want)
	}
}

// TestErrorFeedbackConservationBitwise runs a fixed-seed push sequence
// through the Compressor and through the replaced two-pass encoder (r += g,
// then pack with write-back): every payload and every residual must agree
// bit for bit, so Σ decoded + residual is the same float32 quantity as
// before. For fp16 the conservation itself is also exact at every step:
// decoded + residual == r_prev + g with no rounding, because the write-back
// subtraction is exact.
func TestErrorFeedbackConservationBitwise(t *testing.T) {
	for _, cfg := range []Config{{Codec: FP16}, {Codec: Int8}} {
		rng := rand.New(rand.NewSource(23))
		c, err := NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var refR []float32
		for step := 0; step < 40; step++ {
			g := randTensor(rng, math.Pow(10, -float64(step%8)), 23, 7)
			packed := c.Compress([]*tensor.Tensor{g})[0]

			if refR == nil {
				refR = append([]float32(nil), g.Data()...)
			} else {
				for i, v := range g.Data() {
					refR[i] += v
				}
			}
			sum := append([]float32(nil), refR...) // r_prev + g
			var want []byte
			var wantScale float32
			if cfg.Codec == FP16 {
				want = refPackF16(refR, true)
			} else {
				want, wantScale = refPackQ8(refR, true)
			}
			if string(packed.Payload) != string(want) || packed.Scale != wantScale {
				t.Fatalf("%s step %d: payload differs from the two-pass reference", cfg, step)
			}
			dec, err := DecompressReuse(packed, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range c.residual[0].Data() {
				if math.Float32bits(r) != math.Float32bits(refR[i]) {
					t.Fatalf("%s step %d: residual %d is %g, reference %g", cfg, step, i, r, refR[i])
				}
				if cfg.Codec == FP16 && float64(dec.Data()[i])+float64(r) != float64(sum[i]) {
					t.Fatalf("%s step %d: decoded %g + residual %g != %g", cfg, step, dec.Data()[i], r, sum[i])
				}
			}
		}
	}
}

// TestSteadyStateCodecAllocations pins the buffer ownership the push and
// pull paths rely on: after the first call, Compress (value codecs), PackInto
// and DecompressAllReuse allocate nothing.
func TestSteadyStateCodecAllocations(t *testing.T) {
	for _, cfg := range []Config{{Codec: FP16}, {Codec: Int8}} {
		grads := benchGrads(rand.New(rand.NewSource(1)), 1e-5)
		c, err := NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		packed := c.Compress(grads)
		if n := testing.AllocsPerRun(10, func() { packed = c.Compress(grads) }); n != 0 {
			t.Errorf("%s: Compress allocates %v times per call in the steady state", cfg, n)
		}
		scratch, err := DecompressAllReuse(packed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { scratch, _ = DecompressAllReuse(packed, scratch) }); n != 0 {
			t.Errorf("%s: DecompressAllReuse allocates %v times per call in the steady state", cfg, n)
		}
		pulled := PackInto(nil, grads, cfg)
		if n := testing.AllocsPerRun(10, func() { pulled = PackInto(pulled, grads, cfg) }); n != 0 {
			t.Errorf("%s: PackInto allocates %v times per call in the steady state", cfg, n)
		}
	}
}

// TestCompressOwnsItsBuffers pins the ownership rule: the next Compress
// overwrites the previous result in place.
func TestCompressOwnsItsBuffers(t *testing.T) {
	c, err := NewCompressor(Config{Codec: FP16})
	if err != nil {
		t.Fatal(err)
	}
	first := c.Compress([]*tensor.Tensor{tensor.Full(1, 8)})
	want := string(first[0].Payload)
	second := c.Compress([]*tensor.Tensor{tensor.Full(2, 8)})
	if &first[0].Payload[0] != &second[0].Payload[0] {
		t.Fatal("steady-state Compress did not reuse its payload buffer")
	}
	if string(first[0].Payload) == want {
		t.Fatal("the second Compress left the first result's payload as it was")
	}
}

// factorFill draws n values at scale with a special one time in every (when
// every is positive).
func factorFill(rng *rand.Rand, n int, scale float64, every int) []float32 {
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = float32(rng.NormFloat64() * scale)
		if every > 0 && rng.Intn(every) == 0 {
			vs[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
	}
	return vs
}

// TestF16FeedbackFromFactorsBitIdentical holds the fp16 encode of a gradient
// handed on as its factors (CompressInto's factors) to MatMulTransAInto
// storing the product and the encode reading it back: the payload and the
// residual left, bit for bit, and nothing written around either. k 1-8 on
// the AVX-512 binding is tensor's fused pass, which must leave the gradient's
// own tensor unwritten; k = 9 and every other binding take the fallback,
// product into that tensor then encode. The columns cover a block of 32 with
// each of its two masks partial, whole and empty, and several blocks; the
// fills give sums in the half subnormals, sums that overflow half, and NaNs
// (quiet and signalling, with payloads), infinities, signed zeros and float
// subnormals among the operands and the residual. The int8 and top-k encodes
// take the product-then-encode path on factors too.
func TestF16FeedbackFromFactorsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	poison := math.Float32frombits(0x7fbadbad)
	fills := []struct {
		name               string
		ab, r              float64
		specialsAB, specsR int
	}{
		{"normal", 1, 0.01, 0, 0},
		{"half-subnormal", 1e-3, 1e-7, 0, 0},
		{"half-overflow", 300, 1, 0, 0},
		{"specials", 1, 1, 64, 6},
	}
	for k := 1; k <= 9; k++ {
		fused := tensor.Kernel() == "avx512" && k <= 8
		for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 48, 64, 80} {
			for _, m := range []int{1, 3, 4, 5, 64, 8192} {
				for fi, f := range fills {
					where := fmt.Sprintf("k=%d n=%d m=%d %s", k, n, m, f.name)
					a := tensor.FromSlice(factorFill(rng, k*m, f.ab, f.specialsAB), k, m)
					b := tensor.FromSlice(factorFill(rng, k*n, f.ab, f.specialsAB), k, n)
					r0 := factorFill(rng, m*n, f.r, f.specsR)
					product := tensor.MatMulTransAInto(tensor.New(m, n), a, b)
					ref := &Compressor{cfg: Config{Codec: FP16}, residual: []*tensor.Tensor{tensor.FromSlice(slices.Clone(r0), m, n)}}
					want := ref.Compress([]*tensor.Tensor{product})[0].Payload

					off := (k + n + fi) % 8
					rf, rIntact := carveFloats(r0, off)
					c := &Compressor{cfg: Config{Codec: FP16}, residual: []*tensor.Tensor{tensor.FromSliceOwned(rf, m, n)}}
					pay, payIntact := carveBytes(2*m*n, off)
					scratch := tensor.Full(poison, m, n)
					got := c.CompressInto([][]byte{pay}, []*tensor.Tensor{scratch}, []tensor.Factors{{A: a, B: b}})[0]
					if &got.Payload[0] != &pay[0] || string(pay) != string(want) {
						t.Fatalf("%s: payload differs from the product's encode", where)
					}
					if !sameBitsF32(rf, ref.residual[0].Data()) {
						t.Fatalf("%s: residual differs from the product's encode", where)
					}
					if !rIntact() || !payIntact() {
						t.Fatalf("%s: stored outside the residual or the payload", where)
					}
					wantScratch := product.Data()
					if fused {
						wantScratch = tensor.Full(poison, m, n).Data()
					}
					if !sameBitsF32(scratch.Data(), wantScratch) {
						t.Fatalf("%s: gradient tensor holds %v values, want the fused pass=%v", where, scratch.Data()[:1], fused)
					}
				}
			}
		}
	}
	for _, cfg := range []Config{{Codec: Int8}, {Codec: TopK, TopK: 0.3}} {
		a := tensor.FromSlice(factorFill(rng, 4*64, 1, 0), 4, 64)
		b := tensor.FromSlice(factorFill(rng, 4*33, 1, 0), 4, 33)
		product := tensor.MatMulTransAInto(tensor.New(64, 33), a, b)
		ref, _ := NewCompressor(cfg)
		c, _ := NewCompressor(cfg)
		for step := 0; step < 3; step++ {
			want := ref.Compress([]*tensor.Tensor{product})[0]
			got := c.CompressInto(nil, []*tensor.Tensor{tensor.New(64, 33)}, []tensor.Factors{{A: a, B: b}})[0]
			if string(got.Payload) != string(want.Payload) || got.Scale != want.Scale {
				t.Fatalf("%s step %d: the encode from factors differs from the product's", cfg, step)
			}
		}
	}
}

func sameBitsF32(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
