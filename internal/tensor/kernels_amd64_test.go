//go:build !purego

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX-512 panels against the AVX2 ones they stand in for: the same call
// on two copies of the same operands must leave the two copies of the output
// matrix — the words between its rows and around it included — the same bit
// for bit, NaN payloads too. The edge matrix is the AVX2 panel tests': ldc,
// lda and ldb wider than a row, every alignment, accumulating or not, k%4 and
// k%8 tails, and normal fills against NaN, ±Inf, subnormal and −0 operands.

// twinOperand returns a copy of the matrix m laid out by panelOperand off
// floats into backing, and the copy's backing.
func twinOperand(m, backing []float32, off int) (twin, twinBacking []float32) {
	twinBacking = append([]float32(nil), backing...)
	return twinBacking[off:][:len(m):len(m)], twinBacking
}

func sameBitsAll(got, want []float32) bool {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return len(got) == len(want)
}

// The gemm panel: tiles in fours, a pair and an odd last one, every
// alignment, adding or not, k tails, plain and transposed-A strides, rows at
// offsets that overlap and repeat. The dot panel: runs of every length around
// the eight-lane vectors, one run (a dense operand) or several, rows one to
// nine and one to four columns.
func TestGemmOffPanelAVX512BitIdenticalToAVX2(t *testing.T) {
	if kernel != "avx512" {
		t.Skip("the AVX-512 panels are not bound on this machine")
	}
	rng := rand.New(rand.NewSource(67))
	for fillName, fill := range kernelFills(rng) {
		for _, k := range []int{1, 2, 3, 4, 5, 9, 16, 27, 33} {
			for tiles := 1; tiles <= 9; tiles++ {
				for off := 0; off < 8; off += 3 {
					for _, transA := range []bool{false, true} {
						for _, add := range []bool{false, true} {
							n := mmTileJ * tiles
							ldc := n + off%3
							c, cBack := panelOperand(mmTileI, n, ldc, off, fill)
							want, wantBack := twinOperand(c, cBack, off)
							b, offs := offsetOperand(rng, k, n, n+40, fill)
							// a holds the four rows as (4,k) or, transposed, as (k,4).
							ars, aks := k+off%2, 1
							a, _ := panelOperand(mmTileI, k, ars, (off+5)%8, fill)
							if transA {
								ars, aks = 1, mmTileI+off%2
								a, _ = panelOperand(k, mmTileI, aks, (off+5)%8, fill)
							}
							gemmOffPanelAVX2(&want[0], ldc, &a[0], ars, aks, &b[0], &offs[0], k, tiles, add)
							gemmOffPanelAVX512(&c[0], ldc, &a[0], ars, aks, &b[0], &offs[0], k, tiles, add)
							where := fmt.Sprintf("%s k=%d tiles=%d off=%d transA=%v add=%v", fillName, k, tiles, off, transA, add)
							if !outsideRowsIntact(cBack, mmTileI, n, ldc, off) {
								t.Fatalf("%s: stored outside the tiles", where)
							}
							if !sameBitsAll(cBack, wantBack) {
								t.Fatalf("%s: differs from gemmOffPanelAVX2", where)
							}
						}
					}
				}
			}
		}
	}
}

func TestDotOffPanelAVX512BitIdenticalToAVX2(t *testing.T) {
	if kernel != "avx512" {
		t.Skip("the AVX-512 panels are not bound on this machine")
	}
	rng := rand.New(rand.NewSource(71))
	ws := []int{31, 32, 33, 63, 64, 65, 257}
	for w := 1; w <= 17; w++ {
		ws = append(ws, w)
	}
	for fillName, fill := range kernelFills(rng) {
		for _, w := range ws {
			for _, h := range []int{1, 2, 5} {
				ldb := w + 2
				for rows := 1; rows <= 9; rows++ {
					for cols := 1; cols <= 4; cols++ {
						for _, acc := range []bool{false, true} {
							off := (w + rows) % 8
							ldc, lda := cols+off%3, w*h+off%2
							c, cBack := panelOperand(rows, cols, ldc, off, fill)
							want, wantBack := twinOperand(c, cBack, off)
							a, _ := panelOperand(rows, w*h, lda, (off+3)%8, fill)
							b, offs := offsetOperand(rng, cols, (h-1)*ldb+w, (h-1)*ldb+w+20, fill)
							dotOffPanelAVX2(&want[0], ldc, &a[0], lda, rows, &b[0], &offs[0], cols, w, h, ldb, acc)
							dotOffPanelAVX512(&c[0], ldc, &a[0], lda, rows, &b[0], &offs[0], cols, w, h, ldb, acc)
							where := fmt.Sprintf("%s w=%d h=%d rows=%d cols=%d acc=%v", fillName, w, h, rows, cols, acc)
							if !outsideRowsIntact(cBack, rows, cols, ldc, off) {
								t.Fatalf("%s: stored outside the outputs", where)
							}
							if !sameBitsAll(cBack, wantBack) {
								t.Fatalf("%s: differs from dotOffPanelAVX2", where)
							}
						}
					}
				}
			}
		}
	}
}
