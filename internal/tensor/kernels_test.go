package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The tests below hold whatever fma4Rows and dot4 are bound to (the AVX2+FMA
// assembly where the probe passed, the Go loops under -tags purego or on
// other hardware) to the Go loops mm4Rows and mmDot4.
//
// Tolerance. Any evaluation order of a sum of n products, with or without
// fused multiply-adds, lands within n·u·Σ|aᵢbᵢ| of the exact value (u = 2⁻²⁴,
// the float32 unit roundoff), plus one smallest subnormal per operation when
// results underflow. Two such evaluations therefore differ by at most
//
//	2·n·u·Σ|aᵢbᵢ| + n·2⁻¹⁴⁹
//
// which is the bound kernelTol returns: n = 5 for fma4Rows (four products and
// the accumulator), n = len(a) for dot4. NaN must stay NaN and an infinity
// must stay the same infinity: which of the two a lane ends in depends only
// on which special values enter it, not on the order they are added in.

const unitRoundoff = 1.0 / (1 << 24)

func kernelTol(terms int, sumAbs float64) float64 {
	return 2*float64(terms)*unitRoundoff*sumAbs + float64(terms)*math.SmallestNonzeroFloat32
}

func kernelAgrees(got, want float32, tol float64) bool {
	switch {
	case want != want:
		return got != got
	case math.IsInf(float64(want), 0):
		return got == want
	}
	return math.Abs(float64(got)-float64(want)) <= tol
}

// kernelLengths covers every main-loop / 8-wide / scalar-tail combination
// (0…67) and the off-by-ones around the widths the conv and dense layers use.
func kernelLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 255, 256, 257, 511, 512, 513)
}

// specials are the values injected among normal ones: they exercise NaN and
// infinity propagation, subnormal operands and signed zeros. Magnitudes near
// MaxFloat32 are left out on purpose: a fused multiply-add can legitimately
// stay finite where the separate multiply overflows.
var specials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	1e-40, -1e-41, math.SmallestNonzeroFloat32,
	float32(math.Copysign(0, -1)), 0,
}

const canary = 0xDEADBEEF

// carve returns a slice of n floats that starts off floats into its backing
// array (so vector loads see every 4-byte alignment), filled from fill, with
// a canary word on each side.
func carve(n, off int, fill func() float32) (s, backing []float32) {
	backing = make([]float32, off+1+n+1)
	for i := range backing {
		backing[i] = math.Float32frombits(canary)
	}
	s = backing[off+1 : off+1+n : off+1+n]
	for i := range s {
		s[i] = fill()
	}
	return s, backing
}

func canariesIntact(s, backing []float32) bool {
	off := len(backing) - len(s) - 2
	return math.Float32bits(backing[off]) == canary &&
		math.Float32bits(backing[len(backing)-1]) == canary
}

func kernelFills(rng *rand.Rand) map[string]func() float32 {
	normal := func() float32 { return float32(rng.NormFloat64()) }
	return map[string]func() float32{
		"normal": normal,
		"specials": func() float32 {
			if rng.Intn(6) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return normal()
		},
	}
}

func TestFMA4RowsMatchesGoReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	coeffs := [][4]float32{
		{0.5, -1.25, 3, -0.125},
		{0, float32(math.Copysign(0, -1)), 1e-40, 1},
	}
	for name, fill := range kernelFills(rng) {
		for _, n := range kernelLengths() {
			for off := 0; off < 8; off++ {
				for _, a := range coeffs {
					ob, obBack := carve(n, off, fill)
					var b [4][]float32
					for r := range b {
						// A different alignment per operand row.
						b[r], _ = carve(n, (off+r+1)%8, fill)
					}
					want := append([]float32(nil), ob...)
					before := append([]float32(nil), ob...)
					mm4Rows(want, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
					fma4Rows(ob, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
					if !canariesIntact(ob, obBack) {
						t.Fatalf("%s n=%d off=%d: fma4Rows wrote outside ob", name, n, off)
					}
					for j := range ob {
						sumAbs := math.Abs(float64(before[j]))
						for r := range b {
							sumAbs += math.Abs(float64(a[r]) * float64(b[r][j]))
						}
						if !kernelAgrees(ob[j], want[j], kernelTol(5, sumAbs)) {
							t.Fatalf("%s n=%d off=%d j=%d: fma4Rows %g, Go reference %g",
								name, n, off, j, ob[j], want[j])
						}
					}
				}
			}
		}
	}
}

func TestDot4MatchesGoReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, fill := range kernelFills(rng) {
		for _, n := range kernelLengths() {
			for off := 0; off < 8; off++ {
				a, _ := carve(n, off, fill)
				var b [4][]float32
				for r := range b {
					b[r], _ = carve(n, (off+r+1)%8, fill)
				}
				var got, want [4]float32
				want[0], want[1], want[2], want[3] = mmDot4(a, b[0], b[1], b[2], b[3])
				got[0], got[1], got[2], got[3] = dot4(a, b[0], b[1], b[2], b[3])
				for r := range b {
					var sumAbs float64
					for kk := range a {
						sumAbs += math.Abs(float64(a[kk]) * float64(b[r][kk]))
					}
					if !kernelAgrees(got[r], want[r], kernelTol(n, sumAbs)) {
						t.Fatalf("%s n=%d off=%d row %d: dot4 %g, Go reference %g",
							name, n, off, r, got[r], want[r])
					}
				}
			}
		}
	}
}
