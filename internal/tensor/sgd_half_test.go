package tensor_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// TestSGDStepHalfSourceMatchesDecodeThenStep holds the fused step's half
// sources to what they replace: decoding the fp16 payload with the codec
// (compress) and stepping from the float32 copy. Every one of the 65 536 half
// patterns — subnormals, ±Inf and every NaN, signalling ones included — is a
// gradient value, in batches of one to five that mix float32 and half sources
// in every arrangement, with momentum and without, and at the lengths whose
// tails past the last window of eight run 0 to 15 values, the specials among
// them. The two must agree bit for bit, NaN payloads included: the sum is
// taken in source order either way.
func TestSGDStepHalfSourceMatchesDecodeThenStep(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	patterns := make([]byte, 2<<16)
	for h := range 1 << 16 {
		binary.LittleEndian.PutUint16(patterns[2*h:], uint16(h))
	}
	// Every pattern once; then short runs centred on zero, the top of the
	// subnormals and the Inf/NaN boundary of both signs.
	type run struct{ from, n int }
	runs := []run{{0, 1 << 16}}
	for tail := range 16 {
		for _, at := range []int{0x0000, 0x0400, 0x7c00, 0xfc00} {
			runs = append(runs, run{(at - 8 + 1<<16) % (1 << 16), 16 + tail}, run{at, tail})
		}
	}
	const lr, mu = 0.05, 0.9
	for _, r := range runs {
		for batch := 1; batch <= 5; batch++ {
			for kinds := 1; kinds < 1<<batch; kinds++ { // bit b set: source b is half
				where := fmt.Sprintf("from=%#x n=%d batch=%d kinds=%0*b", r.from, r.n, batch, batch, kinds)
				checkHalfStep(t, rng, where, patterns, r.from, r.n, batch, kinds, lr, mu)
			}
		}
	}
}

func checkHalfStep(t *testing.T, rng *rand.Rand, where string, patterns []byte, from, n, batch, kinds int, lr, mu float32) {
	t.Helper()
	src, v := randFloats(rng, n, 1), randFloats(rng, n, 0.1)
	gs, decoded := make([]tensor.Grad, batch), make([]tensor.Grad, batch)
	for b := range gs {
		if kinds>>b&1 == 0 {
			gs[b].F32 = randFloats(rng, n, 1)
			decoded[b] = gs[b]
			continue
		}
		// Each half source starts its run half the patterns on from the
		// last, so a NaN of one sign meets a NaN of the other in the sums.
		half := make([]byte, 2*n)
		for i := range n {
			at := 2 * ((from + i + b*0x8003) % (1 << 16))
			copy(half[2*i:], patterns[at:at+2])
		}
		gs[b].Half, decoded[b].F32 = half, []float32{}
		if n == 0 {
			continue
		}
		f, err := compress.DecompressReuse(compress.Packed{Scheme: compress.SchemeF16, Shape: []int{n}, Payload: half}, nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded[b].F32 = f.Data()
	}
	for _, momentum := range []bool{false, true} {
		got, want := make([]float32, n), make([]float32, n)
		gotV, wantV := append([]float32(nil), v...), append([]float32(nil), v...)
		if momentum {
			tensor.SGDMomentumStep(got, src, gotV, gs, lr, mu)
			tensor.SGDMomentumStep(want, src, wantV, decoded, lr, mu)
		} else {
			tensor.SGDStep(got, src, gs, lr)
			tensor.SGDStep(want, src, decoded, lr)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(gotV[i]) != math.Float32bits(wantV[i]) {
				t.Fatalf("%s momentum=%v kernel=%s: element %d is %#x (v %#x), decode-then-step %#x (v %#x)",
					where, momentum, tensor.Kernel(), i, math.Float32bits(got[i]), math.Float32bits(gotV[i]),
					math.Float32bits(want[i]), math.Float32bits(wantV[i]))
			}
		}
	}
}

func randFloats(rng *rand.Rand, n int, scale float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * scale)
	}
	return out
}
