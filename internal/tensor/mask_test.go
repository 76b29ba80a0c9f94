package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits64 reports whether a and b hold the same bits, any NaN standing for
// any other: which NaN a sum of several ends in depends on the order the
// compiler puts an add's operands in.
func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// identical reports whether got and want hold the same bits, NaN payloads
// included.
func identical(got, want []float32) bool {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return len(got) == len(want)
}

// maskValues are the values a ReLU mask must sort exactly: NaN and both
// zeros pass, the infinities and the smallest negative subnormal split.
var maskValues = []float32{
	float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), -1e-45,
}

// maskFill draws a special value one time in three, else a normal one of
// either sign.
func maskFill(rng *rand.Rand) func() float32 {
	return func() float32 {
		if rng.Intn(3) == 0 {
			return maskValues[rng.Intn(len(maskValues))]
		}
		return float32(rng.NormFloat64())
	}
}

// reluRef is a ReLU element as it was before masks: the value where
// !(v < 0), +0 elsewhere.
func reluRef(v float32) (float32, bool) {
	if v < 0 {
		return 0, false
	}
	return v, true
}

// maskAround returns a mask holding bits [bit, bit+n) with random bits
// everywhere else and, with clear, zeros in the run.
func maskAround(rng *rand.Rand, bit, n int, clear bool) []uint64 {
	m := make([]uint64, (bit+n+63)/64+1)
	for i := range m {
		m[i] = rng.Uint64()
	}
	if clear {
		for i := bit; i < bit+n; i++ {
			m[i>>6] &^= 1 << (i & 63)
		}
	}
	return m
}

func sameMask(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestReLUMaskKernelsBitIdentical: the ReLU passes — the forward and its
// mask, the masked gradient, and the BatchNorm plane passes that fuse them —
// store exactly what their Go loops store, at every length from 0 to 130
// (every window and tail), at bit offsets that start a run inside a word and
// across a word's end, on NaN, both zeros, both infinities and the smallest
// negative subnormal; the ReLU values are the ones the sign test !(v < 0)
// gave, and every mask bit outside the run is left as it was.
func TestReLUMaskKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	fill := maskFill(rng)
	for n := 0; n <= 130; n++ {
		for _, bit := range []int{0, 5, 61} {
			off := (n + bit) % 8
			where := fmt.Sprintf("n=%d bit=%d", n, bit)
			x, _ := carve(n, off, fill)

			// Forward: values and bits.
			if bit == 0 {
				out, outBack := carve(n, (off+3)%8, fill)
				mask := maskAround(rng, 0, n, false)
				wantMask := append([]uint64(nil), mask...)
				ReLUMask(out, x, mask)
				clear(wantMask[:(n+63)/64])
				want := make([]float32, n)
				reluMaskGo(want, x, wantMask)
				if !canariesIntact(out, outBack) {
					t.Fatalf("ReLUMask %s: wrote outside out", where)
				}
				if !identical(out, want) || !sameMask(mask, wantMask) {
					t.Fatalf("ReLUMask %s: differs from the Go loop", where)
				}
				for i, v := range x {
					r, pass := reluRef(v)
					if math.Float32bits(out[i]) != math.Float32bits(r) || (mask[i>>6]>>(i&63)&1 == 1) != pass {
						t.Fatalf("ReLUMask %s: element %d (%v) gave %v, bit %v", where, i, v, out[i], pass)
					}
				}
			}

			// Backward: dy through the mask, stored or added.
			mask := maskAround(rng, bit, n, false)
			dy, _ := carve(n, (off+5)%8, fill)
			for _, add := range []bool{false, true} {
				dx, dxBack := carve(n, (off+1)%8, fill)
				want := append([]float32(nil), dx...)
				maskGradGo(want, dy, mask, bit, add)
				before := append([]float32(nil), dx...)
				MaskGrad(dx, dy, mask, bit, add)
				if !canariesIntact(dx, dxBack) || !sameFloats(dx, want) {
					t.Fatalf("MaskGrad %s add=%v: differs from the Go loop", where, add)
				}
				for i, g := range dy {
					v := float32(0)
					if mask[(bit+i)>>6]>>((bit+i)&63)&1 == 1 {
						v = g
					}
					if add {
						v = before[i] + v
					}
					if !sameFloats([]float32{dx[i]}, []float32{v}) {
						t.Fatalf("MaskGrad %s add=%v: element %d is %v, want %v", where, add, i, dx[i], v)
					}
				}
			}

			// The sums read through the mask are the sums of the masked
			// values, bit for bit: the same lanes, the same order.
			masked := make([]float32, n)
			maskGradGo(masked, dy, mask, bit, false)
			gotA, gotAB := SumDotF64(dy, x, mask, bit)
			wantA, wantAB := SumDotF64(masked, x, nil, 0)
			if !sameBits64(gotA, wantA) || !sameBits64(gotAB, wantAB) {
				t.Fatalf("SumDotF64 %s: (%v, %v) through the mask, (%v, %v) on the masked values", where, gotA, gotAB, wantA, wantAB)
			}

			// The gradient pass read through the mask: the Go loop's, and
			// the unmasked pass on the masked values.
			xhat, _ := carve(n, (off+2)%8, fill)
			dx, dxBack := carve(n, (off+6)%8, fill)
			want := make([]float32, n)
			planeGradGo(want, dy, xhat, mask, bit, 0.01, 512, 3.5, -7.25)
			NormalizeGradPlane(dx, dy, xhat, mask, bit, 0.01, 512, 3.5, -7.25)
			plain := make([]float32, n)
			NormalizeGradPlane(plain, masked, xhat, nil, 0, 0.01, 512, 3.5, -7.25)
			if !canariesIntact(dx, dxBack) || !sameFloats(dx, want) || !identical(dx, plain) {
				t.Fatalf("NormalizeGradPlane %s: differs from the Go loop or the pass on masked values", where)
			}
		}
	}
}

// TestNormalizePlaneRows: the BatchNorm epilogue — normalise, scale and
// shift, an optional shortcut, the ReLU and its bits — stores what its Go
// loop stores, into rows of any width laid out at any stride, the shortcut
// read in place; and its ReLU is the sign test !(v < 0) on the value a
// separate pass would have produced: float32(gamma·x̂+beta) plus the
// shortcut.
func TestNormalizePlaneRows(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	fill := maskFill(rng)
	const mean, invStd, gamma, beta = 0.125, 1.5, -0.75, 0.0625
	for _, width := range []int{1, 3, 5, 8, 9, 16, 17, 32} {
		for _, rows := range []int{1, 2, 5} {
			for _, pad := range []int{0, 2} {
				for _, bit := range []int{0, 7, 60} {
					for _, form := range []string{"plain", "relu", "relu+sc", "relu+sc=out", "eval"} {
						n, stride := width*rows, width+pad
						where := fmt.Sprintf("width=%d rows=%d stride=%d bit=%d %s", width, rows, stride, bit, form)
						x, _ := carve(n, bit%8, fill)
						outLen := (rows-1)*stride + width
						out, outBack := carve(outLen, (bit+1)%8, fill)
						wantOut := append([]float32(nil), out...)
						var xhat, wantXHat, sc, wantSc []float32
						var xhatBack []float32
						if form != "eval" {
							xhat, xhatBack = carve(n, (bit+2)%8, fill)
							wantXHat = make([]float32, n)
						}
						relu := form != "plain"
						var mask, wantMask []uint64
						if relu && form != "eval" {
							mask = maskAround(rng, bit, n, true)
							wantMask = append([]uint64(nil), mask...)
						}
						switch form {
						case "relu+sc":
							sc, _ = carve(n, (bit+3)%8, fill)
							wantSc = sc
						case "relu+sc=out":
							if pad != 0 {
								continue
							}
							sc = out
							wantSc = wantOut
						}
						// The value a separate pass would have produced.
						sep := make([]float32, n)
						for i, v := range x {
							xh := (float64(v) - mean) * invStd
							sep[i] = float32(gamma*xh + beta)
							if sc != nil {
								sep[i] += sc[i]
							}
						}
						normalizePlaneGo(wantOut, stride, width, wantXHat, x, wantSc, wantMask, bit, relu, mean, invStd, gamma, beta)
						NormalizePlane(out, stride, width, xhat, x, sc, mask, bit, relu, mean, invStd, gamma, beta)
						if !canariesIntact(out, outBack) || (xhat != nil && !canariesIntact(xhat, xhatBack)) {
							t.Fatalf("%s: wrote outside a slice", where)
						}
						if !sameFloats(out, wantOut) || (xhat != nil && !sameFloats(xhat, wantXHat)) || !sameMask(mask, wantMask) {
							t.Fatalf("%s: differs from the Go loop", where)
						}
						for i, v := range sep {
							got := out[i/width*stride+i%width]
							want, pass := v, true
							if relu {
								want, pass = reluRef(v)
							}
							if !sameFloats([]float32{got}, []float32{want}) {
								t.Fatalf("%s: element %d is %v, a separate pass gives %v", where, i, got, want)
							}
							if mask != nil && (mask[(bit+i)>>6]>>((bit+i)&63)&1 == 1) != pass {
								t.Fatalf("%s: bit %d is not the ReLU's", where, i)
							}
						}
					}
				}
			}
		}
	}
}
