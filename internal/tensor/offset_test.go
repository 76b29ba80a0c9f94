package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// offsetOperand returns a buffer of size floats from fill and k row offsets
// into it that leave room for span floats: rows overlap, repeat and fall at
// every alignment, as the shifted views of a bordered image do.
func offsetOperand(rng *rand.Rand, k, span, size int, fill func() float32) (b []float32, off []int) {
	b = make([]float32, size)
	for i := range b {
		b[i] = fill()
	}
	off = make([]int, k)
	for kk := range off {
		off[kk] = rng.Intn(size - span + 1)
	}
	return b, off
}

// gathered is the dense (len(off), n) matrix whose row kk is b[off[kk]:][:n].
func gathered(b []float32, off []int, n int) *Tensor {
	g := New(len(off), n)
	for kk, o := range off {
		copy(g.data[kk*n:(kk+1)*n], b[o:])
	}
	return g
}

// withPanels runs f with the offset panels bound as they are, and again with
// them unbound where they are bound: the row loops alone, which take the
// edges of every product the panels take the middle of.
func withPanels(t *testing.T, f func(t *testing.T)) {
	t.Run("bound", f)
	if gemmOffPanel == nil {
		return
	}
	t.Run("rowloops", func(t *testing.T) {
		savedGemm, savedDot := gemmOffPanel, dotOffPanel
		gemmOffPanel, dotOffPanel = nil, nil
		defer func() { gemmOffPanel, dotOffPanel = savedGemm, savedDot }()
		f(t)
	})
}

// TestMatMulOffsetBitIdenticalToDenseProduct: MatMulOffset is the dense
// product of the gathered operand as the row kernels build it (rowChain), bit
// for bit — plain and transposed-A strides, whole tiles and edge rows and
// columns, k tails, special values — with add set it is that product added
// onto the rows, and it stores nothing between or around the rows.
func TestMatMulOffsetBitIdenticalToDenseProduct(t *testing.T) {
	withPanels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for fillName, fill := range kernelFills(rng) {
			for iter := 0; iter < 60; iter++ {
				m, k, n := 1+rng.Intn(13), 1+rng.Intn(40), 1+rng.Intn(160)
				if iter%3 == 0 {
					n = mmTileJ * (1 + rng.Intn(9))
				}
				transA := iter%2 == 1
				add := iter%4 >= 2
				ldc := n + rng.Intn(3)
				b, off := offsetOperand(rng, k, n, n+rng.Intn(3*n+8), fill)
				dense := gathered(b, off, n)
				ars, aks, aData := k, 1, make([]float32, m*k)
				if transA {
					ars, aks = 1, m
				}
				for i := range aData {
					aData[i] = fill()
				}
				dstOff := rng.Intn(8)
				dst, back := panelOperand(m, n, ldc, dstOff, fill)
				want, rows := New(m, n), denseTable(k, n)
				for i := 0; i < m; i++ {
					row := rowChain(aData, i, ars, aks, dense.data, rows, n)
					for j, v := range row {
						if add {
							v = dst[i*ldc+j] + v
						}
						want.data[i*n+j] = v
					}
				}
				MatMulOffset(dst, ldc, aData, m, ars, aks, b, off, n, add)
				where := fmt.Sprintf("%s m=%d k=%d n=%d ldc=%d transA=%v add=%v", fillName, m, k, n, ldc, transA, add)
				if !outsideRowsIntact(back, m, n, ldc, dstOff) {
					t.Fatalf("%s: stored outside the rows", where)
				}
				for i := 0; i < m; i++ {
					if !sameFloats(dst[i*ldc:i*ldc+n], want.data[i*n:(i+1)*n]) {
						t.Fatalf("%s: row %d differs from the dense product", where, i)
					}
				}
			}
		}
	})
}

// TestMatMulTransBOffsetMatchesDenseProduct: MatMulTransBOffset is the
// product MatMulTransBInto (MatMulTransBAcc with acc) computes on the runs
// gathered end to end — bit for bit on the Go loops, and on the panels
// wherever the runs are whole vectors of eight; with a ragged run the panels
// sum its tail in the lanes a run starts in, not the lanes the one run of the
// dense form would, so there the two agree within the bound for h·w terms.
func TestMatMulTransBOffsetMatchesDenseProduct(t *testing.T) {
	withPanels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for fillName, fill := range kernelFills(rng) {
			for iter := 0; iter < 80; iter++ {
				m, n := 1+rng.Intn(10), 1+rng.Intn(11)
				w, h := 1+rng.Intn(20), 1+rng.Intn(6)
				if iter%2 == 0 {
					w = 8 * (1 + rng.Intn(4))
				}
				acc := iter%3 == 0
				ldb := w + rng.Intn(4)
				b, off := offsetOperand(rng, n, (h-1)*ldb+w, (h-1)*ldb+w+rng.Intn(40), fill)
				dense := New(n, h*w)
				for j, o := range off {
					for y := 0; y < h; y++ {
						copy(dense.data[j*h*w+y*w:j*h*w+(y+1)*w], b[o+y*ldb:])
					}
				}
				a := New(m, h*w)
				for i := range a.data {
					a.data[i] = fill()
				}
				base := New(m, n)
				for i := range base.data {
					base.data[i] = fill()
				}
				want, got := base.Clone(), base.Clone()
				if acc {
					MatMulTransBAcc(want, a, dense)
				} else {
					MatMulTransBInto(want, a, dense)
				}
				MatMulTransBOffset(got, a, b, off, w, h, ldb, acc)
				where := fmt.Sprintf("%s m=%d n=%d w=%d h=%d ldb=%d acc=%v", fillName, m, n, w, h, ldb, acc)
				// The row loops sum in the scalar order, the panel in its
				// lanes, which are the dense form's where runs are whole
				// vectors.
				if dotOffPanel == nil || w%8 == 0 {
					if !sameFloats(got.data, want.data) {
						t.Fatalf("%s: differs from the dense product", where)
					}
					continue
				}
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						var sumAbs float64
						for kk := 0; kk < h*w; kk++ {
							sumAbs += math.Abs(float64(a.data[i*h*w+kk]) * float64(dense.data[j*h*w+kk]))
						}
						terms := h * w
						if acc {
							sumAbs += math.Abs(float64(base.data[i*n+j]))
							terms++
						}
						if !kernelAgrees(got.data[i*n+j], want.data[i*n+j], 2*kernelTol(terms, sumAbs)) {
							t.Fatalf("%s: output (%d,%d) %g, dense %g", where, i, j, got.data[i*n+j], want.data[i*n+j])
						}
					}
				}
			}
		}
	})
}

// TestOffsetProductsSplitAcrossThePool: with the threshold forced to zero
// both offset products are split into several chunks and each chunk's rows
// come out as the serial product's, bit for bit.
func TestOffsetProductsSplitAcrossThePool(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	normal := func() float32 { return float32(rng.NormFloat64()) }
	const m, k, n, w, h = 13, 27, 80, 8, 10
	a := New(m, k).RandNormal(rng, 0, 1)
	b, off := offsetOperand(rng, k, n, 4*n, normal)
	serial := make([]float32, m*n)
	MatMulOffset(serial, n, a.data, m, k, 1, b, off, n, false)
	grad := New(m, w*h).RandNormal(rng, 0, 1)
	bt, offT := offsetOperand(rng, k, (h-1)*(w+2)+w, 2*h*(w+2), normal)
	serialT := New(m, k)
	MatMulTransBOffset(serialT, grad, bt, offT, w, h, w+2, false)

	forceParallelMatmul(t)
	chunks := countChunks(t)
	got := make([]float32, m*n)
	MatMulOffset(got, n, a.data, m, k, 1, b, off, n, false)
	mustHaveSplit(t, chunks, m, "MatMulOffset")
	if !sameFloats(got, serial) {
		t.Fatal("MatMulOffset split across the pool differs from the serial product")
	}
	chunks = countChunks(t)
	gotT := New(m, k)
	MatMulTransBOffset(gotT, grad, bt, offT, w, h, w+2, false)
	mustHaveSplit(t, chunks, m, "MatMulTransBOffset")
	if !sameFloats(gotT.data, serialT.data) {
		t.Fatal("MatMulTransBOffset split across the pool differs from the serial product")
	}
}
