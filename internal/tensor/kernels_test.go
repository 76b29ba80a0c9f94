package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests below hold whatever the kernel seams are bound to (the AVX2+FMA
// assembly where the probe passed, with the panels in AVX-512 form where the
// CPU has AVX512F as well, the Go loops under -tags purego or on other
// hardware) to the Go loops: fma4Rows to mm4Rows, the slice kernels to
// their ...Go forms, and the register-tiled panels, which exist in assembly
// only, to the row loops they replace.
//
// Tolerance. Any evaluation order of a sum of n products, with or without
// fused multiply-adds, lands within n·u·Σ|aᵢbᵢ| of the exact value (u = 2⁻²⁴,
// the float32 unit roundoff), plus one smallest subnormal per operation when
// results underflow. Two such evaluations therefore differ by at most
//
//	2·n·u·Σ|aᵢbᵢ| + n·2⁻¹⁴⁹
//
// which is the bound kernelTol returns: n = 5 for fma4Rows (four products and
// the accumulator), n = k (+1 when accumulating) for dotOffPanel, n = len(x) for
// the float32 sum; the float64 sums get the same bound with u = 2⁻⁵³
// (kernelTol64). NaN must stay NaN and an infinity
// must stay the same infinity: which of the two a lane ends in depends only
// on which special values enter it, not on the order they are added in.

const unitRoundoff = 1.0 / (1 << 24)

func kernelTol(terms int, sumAbs float64) float64 {
	return 2*float64(terms)*unitRoundoff*sumAbs + float64(terms)*math.SmallestNonzeroFloat32
}

func kernelAgrees(got, want float32, tol float64) bool {
	return agrees64(float64(got), float64(want), tol)
}

// agrees64 is the comparison under kernelAgrees, for the float64 sums too.
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

// canary is a NaN: a load past a slice that feeds any arithmetic poisons the
// result, so the comparisons catch over-reads as well as stray stores.
const canary = 0x7FDEADBE

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

// kernelTol64 is kernelTol for a sum accumulated in float64.
func kernelTol64(terms int, sumAbs float64) float64 {
	return 2 * float64(terms) * (1.0 / (1 << 53)) * sumAbs
}

func agrees64(got, want, tol float64) bool {
	switch {
	case want != want:
		return got != got
	case math.IsInf(want, 0):
		return got == want
	}
	return math.Abs(got-want) <= tol
}

// sameFloats reports whether got and want hold the same bits, any NaN
// standing for any other.
func sameFloats(got, want []float32) bool {
	for i, w := range want {
		if g := got[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			return false
		}
	}
	return len(got) == len(want)
}

// normalizeKernel runs a normalise pass, normalizePlane or its Go loop, over
// dst in one row: x̂ into a, or, with relu, no x̂ and the ReLU over the sum
// with dst itself as the shortcut.
func normalizeKernel(k func(out []float32, stride, width int, xhat, x, sc []float32, mask []uint64, bit int, relu bool, mean, invStd, gamma, beta float64), relu bool) func(d, a, b []float32) {
	return func(d, a, b []float32) {
		if relu {
			k(d, len(d), len(d), nil, b, d, nil, 0, true, 0.25, 1.7, -0.6, 0.1)
			return
		}
		k(d, len(d), len(d), a, b, nil, nil, 0, false, 0.25, 1.7, -0.6, 0.1)
	}
}

// TestSliceKernelsBitIdenticalToGoLoops: the elementwise kernels do per
// element exactly what their Go loops do, at every length and alignment and
// on special values, and touch nothing outside their slices.
func TestSliceKernelsBitIdenticalToGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type kernel struct {
		name       string
		bound, ref func(dst, a, b []float32)
	}
	kernels := []kernel{
		{"addSlice", func(d, a, _ []float32) { addSlice(d, a) }, func(d, a, _ []float32) { addSliceGo(d, a) }},
		{"sumPair", func(d, a, b []float32) { sumPair(d, a, b) }, func(d, a, b []float32) { sumPairGo(d, a, b) }},
		{"axpySlice", func(d, a, _ []float32) { axpySlice(0.37, a, d) }, func(d, a, _ []float32) { axpySliceGo(0.37, a, d) }},
		{"scaleSlice", func(d, _, _ []float32) { scaleSlice(-1.25, d) }, func(d, _, _ []float32) { scaleSliceGo(-1.25, d) }},
		{"addScalarSlice", func(d, _, _ []float32) { addScalarSlice(0.3, d) }, func(d, _, _ []float32) { addScalarSliceGo(0.3, d) }},
		{"normalizePlane", normalizeKernel(normalizePlane, false), normalizeKernel(normalizePlaneGo, false)},
		{"normalizePlane/relu+sc=out", normalizeKernel(normalizePlane, true), normalizeKernel(normalizePlaneGo, true)},
		{"planeGrad", func(d, a, b []float32) { planeGrad(d, a, b, nil, 0, 0.01, 512, 3.5, -7.25) },
			func(d, a, b []float32) { planeGradGo(d, a, b, nil, 0, 0.01, 512, 3.5, -7.25) }},
		{"planeGrad/dy=dx", func(d, _, b []float32) { planeGrad(d, d, b, nil, 0, 0.01, 512, 3.5, -7.25) },
			func(d, _, b []float32) { planeGradGo(d, d, b, nil, 0, 0.01, 512, 3.5, -7.25) }},
	}
	for fillName, fill := range kernelFills(rng) {
		for _, k := range kernels {
			for _, n := range kernelLengths() {
				for off := 0; off < 8; off++ {
					dst, dstBack := carve(n, off, fill)
					a, aBack := carve(n, (off+3)%8, fill)
					b, _ := carve(n, (off+5)%8, fill)
					wantDst := append([]float32(nil), dst...)
					wantA := append([]float32(nil), a...)
					k.ref(wantDst, wantA, b)
					k.bound(dst, a, b)
					if !canariesIntact(dst, dstBack) || !canariesIntact(a, aBack) {
						t.Fatalf("%s %s n=%d off=%d: wrote outside a slice", k.name, fillName, n, off)
					}
					if !sameFloats(dst, wantDst) || !sameFloats(a, wantA) {
						t.Fatalf("%s %s n=%d off=%d: differs from the Go loop", k.name, fillName, n, off)
					}
				}
			}
		}
	}
}

// TestSGDStepBitIdenticalToGoLoops: the fused optimizer step does per element
// exactly what its Go loops do — the batch summed in source order, every
// multiply, add and subtract rounded on its own — for batches of one to six
// (the Go loops' four unrolled bodies and their strip path), with momentum and
// without, into a separate destination and in place, at every length and
// alignment and on special values, an infinite parameter included, and
// touches nothing outside its slices.
func TestSGDStepBitIdenticalToGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const lr, mu = 0.05, 0.9
	for fillName, fill := range kernelFills(rng) {
		for batch := 1; batch <= 6; batch++ {
			for _, n := range kernelLengths() {
				for off := 0; off < 8; off++ {
					where := fmt.Sprintf("%s batch=%d n=%d off=%d", fillName, batch, n, off)
					src, _ := carve(n, (off+3)%8, fill)
					if n > 0 && fillName == "specials" {
						src[n/2] = float32(math.Inf(1 - 2*(off%2)))
					}
					gs := make([]Grad, batch)
					for b := range gs {
						gs[b].F32, _ = carve(n, (off+b+1)%8, fill)
					}
					for _, momentum := range []bool{false, true} {
						for _, inPlace := range []bool{false, true} {
							dst, dstBack := carve(n, off, fill)
							if inPlace {
								copy(dst, src)
							}
							v, vBack := carve(n, (off+5)%8, fill)
							wantDst, wantV := make([]float32, n), append([]float32(nil), v...)
							from := src
							if inPlace {
								from = dst
							}
							if momentum {
								sgdMomentumStepGo(wantDst, src, wantV, gs, lr, mu)
								SGDMomentumStep(dst, from, v, gs, lr, mu)
							} else {
								sgdStepGo(wantDst, src, gs, lr)
								SGDStep(dst, from, gs, lr)
							}
							if !canariesIntact(dst, dstBack) || !canariesIntact(v, vBack) {
								t.Fatalf("%s momentum=%v inPlace=%v: wrote outside a slice", where, momentum, inPlace)
							}
							if !sameFloats(dst, wantDst) || !sameFloats(v, wantV) {
								t.Fatalf("%s momentum=%v inPlace=%v: differs from the Go loop", where, momentum, inPlace)
							}
						}
					}
				}
			}
		}
	}
}

// TestSumKernelsMatchGoLoops: the reductions add the terms of the Go loops in
// another order, so they agree within the bound for that many terms.
func TestSumKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for fillName, fill := range kernelFills(rng) {
		for _, n := range kernelLengths() {
			for off := 0; off < 8; off++ {
				x, _ := carve(n, off, fill)
				y, _ := carve(n, (off+3)%8, fill)
				var absX, absDev, absXY float64
				for i, v := range x {
					absX += math.Abs(float64(v))
					d := float64(v) - 0.25
					absDev += d * d
					absXY += math.Abs(float64(v) * float64(y[i]))
				}
				where := func(kernel string) string {
					return fmt.Sprintf("%s %s n=%d off=%d", kernel, fillName, n, off)
				}
				if got, want := sumSlice(x), sumSliceGo(x); !kernelAgrees(got, want, kernelTol(n, absX)) {
					t.Fatalf("%s: %g, Go loop %g", where("sumSlice"), got, want)
				}
				if got, want := sumF64(x), sumF64Go(x); !agrees64(got, want, kernelTol64(n, absX)) {
					t.Fatalf("%s: %g, Go loop %g", where("sumF64"), got, want)
				}
				// Each squared deviation is rounded once more than it is added.
				if got, want := sumSqDevF64(x, 0.25), sumSqDevF64Go(x, 0.25); !agrees64(got, want, kernelTol64(n+1, absDev)) {
					t.Fatalf("%s: %g, Go loop %g", where("sumSqDevF64"), got, want)
				}
				gotA, gotAB := sumDot(x, y, nil, 0)
				wantA, wantAB := sumDotGo(x, y, nil, 0)
				if !agrees64(gotA, wantA, kernelTol64(n, absX)) || !agrees64(gotAB, wantAB, kernelTol64(n, absXY)) {
					t.Fatalf("%s: (%g, %g), Go loop (%g, %g)", where("sumDot"), gotA, gotAB, wantA, wantAB)
				}
				// The assembly sums the values after the last whole window in
				// index order from zero and adds them last.
				w := n &^ 7
				headA, headAB := sumDot(x[:w], y[:w], nil, 0)
				tailA, tailAB := sumDotGo(x[w:], y[w:], nil, 0)
				if Kernel() != "go" && (!sameBits64(gotA, headA+tailA) || !sameBits64(gotAB, headAB+tailAB)) {
					t.Fatalf("%s: the tail is not summed from zero and added last", where("sumDot"))
				}
			}
		}
	}
}

// panelOperand lays an (r, c) matrix out with a row stride of ld floats, off
// floats into its backing array, canary words everywhere outside the rows.
func panelOperand(r, c, ld, off int, fill func() float32) (m, backing []float32) {
	backing = make([]float32, off+(r-1)*ld+c+9)
	for i := range backing {
		backing[i] = math.Float32frombits(canary)
	}
	m = backing[off:][: (r-1)*ld+c : (r-1)*ld+c]
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m[i*ld+j] = fill()
		}
	}
	return m, backing
}

// twinOperand returns a copy of the matrix m laid out by panelOperand off
// floats into backing, and the copy's backing.
func twinOperand(m, backing []float32, off int) (twin, twinBacking []float32) {
	twinBacking = append([]float32(nil), backing...)
	return twinBacking[off:][:len(m):len(m)], twinBacking
}

// outsideRowsIntact reports whether every word of backing outside the r rows
// of c floats laid out by panelOperand still holds the canary.
func outsideRowsIntact(backing []float32, r, c, ld, off int) bool {
	for i, v := range backing {
		if j := i - off; j >= 0 && j < (r-1)*ld+c && j%ld < c {
			continue
		}
		if math.Float32bits(v) != canary {
			return false
		}
	}
	return true
}

// rowChain returns row r of a product as the row kernels build it: k in
// order from +0, fma4Rows while four steps remain, axpySlice for the k%4 tail.
// a's element (r, kk) is a[r*ars+kk*aks] and b's row kk is b[off[kk]:][:n].
func rowChain(a []float32, r, ars, aks int, b []float32, off []int, n int) []float32 {
	row := make([]float32, n)
	p, kk := r*ars, 0
	for ; kk+4 <= len(off); kk += 4 {
		fma4Rows(row, b[off[kk]:][:n], b[off[kk+1]:][:n], b[off[kk+2]:][:n], b[off[kk+3]:][:n],
			a[p+kk*aks], a[p+(kk+1)*aks], a[p+(kk+2)*aks], a[p+(kk+3)*aks])
	}
	for ; kk < len(off); kk++ {
		axpySlice(a[p+kk*aks], b[off[kk]:][:n], row)
	}
	return row
}

// denseTable is the offset table of k rows at a stride of ld floats.
func denseTable(k, ld int) []int {
	off := make([]int, k)
	for kk := range off {
		off[kk] = kk * ld
	}
	return off
}

// TestGemmPanelBitIdenticalToRowKernels: a register tile builds every output
// by the chain of operations fma4Rows and axpySlice build between them — k in
// order, fused while four steps remain, multiply-then-add for the k%4 tail —
// so the panel must reproduce them bit for bit, on a dense operand's table
// (rows at kk·ldb, padding between them) and on a table whose rows overlap,
// repeat and fall at every alignment, plain and transposed-A strides alike,
// adding onto c or not, and store nothing outside its tiles.
func TestGemmPanelBitIdenticalToRowKernels(t *testing.T) {
	if gemmOffPanel == nil {
		t.Skip("the panels exist in assembly only")
	}
	rng := rand.New(rand.NewSource(31))
	for fillName, fill := range kernelFills(rng) {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 16, 27, 33} {
			for tiles := 1; tiles <= 5; tiles++ {
				for off := 0; off < 8; off++ {
					for _, transA := range []bool{false, true} {
						for _, add := range []bool{false, true} {
							for _, table := range []string{"dense", "shuffled"} {
								n := mmTileJ * tiles
								ldc, ldb := n+off%3, n+1+(off+1)%4
								c, cBack := panelOperand(mmTileI, n, ldc, off, fill)
								b, _ := panelOperand(k, n, ldb, (off+3)%8, fill)
								offs := denseTable(k, ldb)
								if table == "shuffled" {
									b, offs = offsetOperand(rng, k, n, n+rng.Intn(3*n), fill)
								}
								// a holds the four rows as (4,k) or, transposed, as (k,4).
								ars, aks := k+off%2, 1
								a, _ := panelOperand(mmTileI, k, ars, (off+5)%8, fill)
								if transA {
									ars, aks = 1, mmTileI+off%2
									a, _ = panelOperand(k, mmTileI, aks, (off+5)%8, fill)
								}
								want := make([][]float32, mmTileI)
								for r := range want {
									want[r] = rowChain(a, r, ars, aks, b, offs, n)
									if add {
										for j, v := range want[r] {
											want[r][j] = c[r*ldc+j] + v
										}
									}
								}
								gemmOffPanel(&c[0], ldc, &a[0], ars, aks, &b[0], &offs[0], k, tiles, add)
								where := fmt.Sprintf("%s %s k=%d tiles=%d off=%d transA=%v add=%v", fillName, table, k, tiles, off, transA, add)
								if !outsideRowsIntact(cBack, mmTileI, n, ldc, off) {
									t.Fatalf("%s: stored outside the tiles", where)
								}
								for r := range want {
									if !sameFloats(c[r*ldc:][:n], want[r]) {
										t.Fatalf("%s: row %d differs from fma4Rows + axpySlice", where, r)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDotPanelMatchesGoReference: every output of a transposed-B panel is a
// dot product summed eight lanes apart, so it agrees with the scalar sum
// within the bound for its terms (and the accumulator), on a dense operand's
// one run per row (h = 1, rows at j·ldb) and on rows of several runs; the
// panel stores only its rows by cols outputs, reads no operand past its
// runs, and builds an output with the same instructions on an edge — an odd
// last row, fewer than four columns — as inside a whole tile, which is what
// lets a product be split anywhere.
func TestDotPanelMatchesGoReference(t *testing.T) {
	if dotOffPanel == nil {
		t.Skip("the panels exist in assembly only")
	}
	type shape struct{ w, h int }
	var shapes []shape
	for _, k := range kernelLengths() {
		if k > 0 && (k <= 67 || k == 257) {
			shapes = append(shapes, shape{k, 1})
		}
	}
	for _, w := range []int{1, 7, 8, 9, 16, 17} {
		shapes = append(shapes, shape{w, 2}, shape{w, 5})
	}
	rng := rand.New(rand.NewSource(37))
	for fillName, fill := range kernelFills(rng) {
		for _, sh := range shapes {
			w, h := sh.w, sh.h
			k := w * h
			off := k % 8
			for _, rows := range []int{1, 2, 3, 4} {
				for cols := 1; cols <= 4; cols++ {
					for _, acc := range []bool{false, true} {
						ldc, lda, ldb := cols+off%3, k+off%2, w+(off+1)%3
						c, cBack := panelOperand(rows, cols, ldc, off, fill)
						a, _ := panelOperand(rows, k, lda, (off+3)%8, fill)
						// One run per row: a dense (cols, k) operand; else each
						// row h runs of w at a stride of ldb, anywhere in b.
						b, _ := panelOperand(cols, k, ldb, (off+5)%8, fill)
						offs := denseTable(cols, ldb)
						if h > 1 {
							b, offs = offsetOperand(rng, cols, (h-1)*ldb+w, (h-1)*ldb+w+rng.Intn(20), fill)
						}
						before := append([]float32(nil), c...)
						dotOffPanel(&c[0], ldc, &a[0], lda, rows, &b[0], &offs[0], cols, w, h, ldb, acc)
						where := fmt.Sprintf("%s w=%d h=%d rows=%d cols=%d acc=%v", fillName, w, h, rows, cols, acc)
						if !outsideRowsIntact(cBack, rows, cols, ldc, off) {
							t.Fatalf("%s: stored outside the outputs", where)
						}
						for i := 0; i < rows; i++ {
							for j := 0; j < cols; j++ {
								var want float32
								var sumAbs float64
								for y := 0; y < h; y++ {
									for x := 0; x < w; x++ {
										av, bv := a[i*lda+y*w+x], b[offs[j]+y*ldb+x]
										want += av * bv
										sumAbs += math.Abs(float64(av) * float64(bv))
									}
								}
								terms := k
								if acc {
									want += before[i*ldc+j]
									sumAbs += math.Abs(float64(before[i*ldc+j]))
									terms++
								}
								got := c[i*ldc+j]
								if !kernelAgrees(got, want, kernelTol(terms, sumAbs)) {
									t.Fatalf("%s: output (%d,%d) %g, scalar sum %g", where, i, j, got, want)
								}
								// The same output alone: one row, one column.
								alone := []float32{before[i*ldc+j]}
								dotOffPanel(&alone[0], 1, &a[i*lda], lda, 1, &b[0], &offs[j], 1, w, h, ldb, acc)
								if !sameFloats(alone, []float32{got}) {
									t.Fatalf("%s: output (%d,%d) is %g in the panel, %g alone", where, i, j, got, alone[0])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulPanelsBitIdenticalToRowLoops: whole products through the panels
// — full tiles, edge rows, edge columns, k tails — against the same products
// with the panels unbound, the row loops alone: bit for bit where the
// summation order is kept (plain, transposed A), within tolerance where it is
// not (transposed B).
func TestMatMulPanelsBitIdenticalToRowLoops(t *testing.T) {
	if gemmOffPanel == nil {
		t.Skip("the panels exist in assembly only")
	}
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 60; iter++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(70), 1+rng.Intn(70)
		a := New(m, k).RandNormal(rng, 0, 1)
		at := New(k, m).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		bt := New(n, k).RandNormal(rng, 0, 1)
		base := New(m, n).RandNormal(rng, 0, 1)
		run := func() [3]*Tensor {
			return [3]*Tensor{MatMul(a, b), MatMulTransAInto(base.Clone(), at, b), MatMulTransBAcc(base.Clone(), a, bt)}
		}
		tiled := run()
		savedGemm, savedDot, savedSmallK := gemmOffPanel, dotOffPanel, gemmOffSmallK
		gemmOffPanel, dotOffPanel, gemmOffSmallK = nil, nil, nil
		rows := run()
		gemmOffPanel, dotOffPanel, gemmOffSmallK = savedGemm, savedDot, savedSmallK
		for p, name := range []string{"MatMul", "MatMulTransAInto"} {
			if !sameFloats(tiled[p].data, rows[p].data) {
				t.Fatalf("%s through the panels differs from the row loops at m=%d k=%d n=%d", name, m, k, n)
			}
		}
		if !withinRelTol(tiled[2], rows[2], 1e-4) {
			t.Fatalf("MatMulTransBAcc through the panel differs from the row loops at m=%d k=%d n=%d", m, k, n)
		}
	}
}

// TestRealShapesStaySerial: two workers already own the reference box's two
// cores, and at the assembly's rate the largest product of a ResNet-8 or
// wide-MLP iteration is 60 µs of work, so none of them may cross the
// assembly's fan-out threshold. (The Go loops' threshold prices a wake-up at
// their own rate, at which the same products are a millisecond.)
func TestRealShapesStaySerial(t *testing.T) {
	if kernel == "go" {
		t.Skip("holds the assembly's thresholds")
	}
	shapes := [][3]int{{4, 8192, 32}, {8192, 4, 32}, {4, 32, 8192}} // the wide MLP's dense layer: y, dW, dx
	for _, s := range convShapes {
		outC, patch, plane := s[0], s[1], s[2]
		shapes = append(shapes, [3]int{outC, patch, plane}, [3]int{outC, plane, patch}, [3]int{patch, outC, plane})
	}
	for _, s := range directConvShapes { // forward, dW and one tap of dX
		inC, outC, size := s[0], s[1], s[2]
		wide := size * (size + 2)
		shapes = append(shapes, [3]int{outC, 9 * inC, wide}, [3]int{outC, size * size, 9 * inC}, [3]int{inC, outC, wide})
	}
	for _, s := range shapes {
		if !mmSerial(s[0], s[1], s[2]) {
			t.Errorf("a %d×%d×%d product (%d flops) fans out at threshold %d", s[0], s[1], s[2], 2*s[0]*s[1]*s[2], mmParallelMinFlops)
		}
	}
}
