package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

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

func TestHalfTableMatchesScalarReference(t *testing.T) {
	tab := halfTable()
	for h := 0; h < 1<<16; h++ {
		got, want := math.Float32bits(tab[h]), math.Float32bits(refF16ToF32(uint16(h)))
		if got != want {
			t.Fatalf("half %#04x: table %#08x, reference %#08x", h, got, want)
		}
	}
}

// TestFloatToHalfMatchesScalarReference compares the branch-free encoder
// with the scalar reference over every float32 bit pattern. Under -short it
// covers a stride-7 sample of the patterns plus a window around every
// exponent boundary; under the race detector, which slows the sweep tenfold
// and has no concurrency to inspect here, a stride-61 sample.
func TestFloatToHalfMatchesScalarReference(t *testing.T) {
	check := func(b uint32) bool {
		f := math.Float32frombits(b)
		return uint16(floatToHalf(b)) == refF32ToF16(f)
	}
	fail := func(b uint32) {
		f := math.Float32frombits(b)
		t.Errorf("float %#08x (%g): kernel %#04x, reference %#04x", b, f, floatToHalf(b), refF32ToF16(f))
	}
	for e := uint32(0); e < 512; e++ { // sign and exponent
		for d := uint32(0); d < 1<<14; d++ {
			for _, b := range [2]uint32{e<<23 + d, e<<23 - 1 - d} {
				if !check(b) {
					fail(b)
					return
				}
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
			for b := lo; b < hi; b += stride {
				if !check(uint32(b)) {
					fail(uint32(b))
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

func TestF16KernelsMatchScalarReference(t *testing.T) {
	for _, vs := range kernelInputs(rand.New(rand.NewSource(1))) {
		want := refPackF16(append([]float32(nil), vs...), false)
		got := make([]byte, 2*len(vs))
		encodeF16(got, vs)
		if string(got) != string(want) {
			t.Fatalf("encodeF16(%v) = %x, reference %x", vs, got, want)
		}

		dec := make([]float32, len(vs))
		decodeF16(dec, got)
		for i := range dec {
			h := binary.LittleEndian.Uint16(got[2*i:])
			if math.Float32bits(dec[i]) != math.Float32bits(refF16ToF32(h)) {
				t.Fatalf("decodeF16 value %d of %v: %g, reference %g", i, vs, dec[i], refF16ToF32(h))
			}
		}

		// Fused feedback pass against add-then-pack-with-write-back.
		r := make([]float32, len(vs))
		for i := range r {
			r[i] = vs[len(vs)-1-i] / 3
		}
		refR := append([]float32(nil), r...)
		for i := range refR {
			refR[i] += vs[i]
		}
		want = refPackF16(refR, true)
		encodeF16Feedback(got, r, vs)
		if string(got) != string(want) {
			t.Fatalf("encodeF16Feedback(%v) = %x, reference %x", vs, got, want)
		}
		for i := range r {
			if math.Float32bits(r[i]) != math.Float32bits(refR[i]) && !(r[i] != r[i] && refR[i] != refR[i]) {
				t.Fatalf("encodeF16Feedback residual %d of %v: %g, reference %g", i, vs, r[i], refR[i])
			}
		}
	}
}

func TestQ8KernelsMatchScalarReference(t *testing.T) {
	// Finite inputs only: int8 cannot carry Inf or NaN, and what the replaced
	// code made of them (int32 of a NaN) was platform-defined.
	var inputs [][]float32
	for _, vs := range kernelInputs(rand.New(rand.NewSource(2))) {
		finite := !slices.ContainsFunc(vs, func(v float32) bool { return v != v || math.IsInf(float64(v), 0) })
		if finite {
			inputs = append(inputs, vs)
		}
	}
	// Exact ties and the clamp edge: with maxAbs 127 the scale is exactly 1.
	inputs = append(inputs,
		[]float32{127, -127, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -126.5, 0.49999997, 0},
		[]float32{254, -254, 1, 3, 5, -1, -3, 253, 127, 0},
		[]float32{0, 0, 0},
		[]float32{1e-45, -1e-45, 0}, // maxAbs/127 underflows to a zero scale
	)
	for _, vs := range inputs {
		want, wantScale := refPackQ8(append([]float32(nil), vs...), false)
		var p Packed
		packQ8(&p, tensor.FromSlice(append([]float32(nil), vs...), len(vs)))
		if p.Scale != wantScale || string(p.Payload) != string(want) {
			t.Fatalf("packQ8(%v) = %x scale %g, reference %x scale %g", vs, p.Payload, p.Scale, want, wantScale)
		}
		dec := make([]float32, len(vs))
		decodeQ8(dec, p.Payload, p.Scale)
		for i := range dec {
			if ref := float32(int8(want[i])) * wantScale; dec[i] != ref {
				t.Fatalf("decodeQ8 value %d of %v: %g, reference %g", i, vs, dec[i], ref)
			}
		}

		r := make([]float32, len(vs))
		for i := range r {
			r[i] = vs[len(vs)-1-i] / 3
		}
		refR := append([]float32(nil), r...)
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
			dec, err := Decompress(packed)
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
// overwrites the previous result in place, and ClonePacked detaches from it.
func TestCompressOwnsItsBuffers(t *testing.T) {
	c, err := NewCompressor(Config{Codec: FP16})
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.Full(1, 8)
	first := c.Compress([]*tensor.Tensor{g})
	kept := ClonePacked(first)
	want := string(kept[0].Payload)
	second := c.Compress([]*tensor.Tensor{tensor.Full(2, 8)})
	if &first[0].Payload[0] != &second[0].Payload[0] {
		t.Fatal("steady-state Compress did not reuse its payload buffer")
	}
	if string(kept[0].Payload) != want {
		t.Fatal("ClonePacked result changed with the next Compress")
	}
}
