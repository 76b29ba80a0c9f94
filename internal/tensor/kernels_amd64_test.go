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

func TestGemmPanelAVX512BitIdenticalToAVX2(t *testing.T) {
	if kernel != "avx512" {
		t.Skip("the AVX-512 panels are not bound on this machine")
	}
	rng := rand.New(rand.NewSource(43))
	for fillName, fill := range kernelFills(rng) {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 27, 33} {
			for tiles := 1; tiles <= 5; tiles++ {
				for off := 0; off < 8; off++ {
					for _, transA := range []bool{false, true} {
						for _, acc := range []bool{false, true} {
							n := mmTileJ * tiles
							ldc, ldb := n+off%3, n+(off+1)%4
							c, cBack := panelOperand(mmTileI, n, ldc, off, fill)
							want, wantBack := twinOperand(c, cBack, off)
							b, _ := panelOperand(k, n, ldb, (off+3)%8, fill)
							ars, aks := k+off%2, 1
							a, _ := panelOperand(mmTileI, k, ars, (off+5)%8, fill)
							if transA {
								ars, aks = 1, mmTileI+off%2
								a, _ = panelOperand(k, mmTileI, aks, (off+5)%8, fill)
							}
							gemmPanelAVX2(&want[0], ldc, &a[0], ars, aks, &b[0], ldb, k, tiles, acc)
							gemmPanelAVX512(&c[0], ldc, &a[0], ars, aks, &b[0], ldb, k, tiles, acc)
							where := fmt.Sprintf("%s k=%d tiles=%d off=%d transA=%v acc=%v", fillName, k, tiles, off, transA, acc)
							if !outsideRowsIntact(cBack, mmTileI, n, ldc, off) {
								t.Fatalf("%s: stored outside the tiles", where)
							}
							if !sameBitsAll(cBack, wantBack) {
								t.Fatalf("%s: differs from gemmPanelAVX2", where)
							}
						}
					}
				}
			}
		}
	}
}

func TestDotPanelAVX512BitIdenticalToAVX2(t *testing.T) {
	if kernel != "avx512" {
		t.Skip("the AVX-512 panels are not bound on this machine")
	}
	rng := rand.New(rand.NewSource(47))
	ks := []int{31, 32, 33, 63, 64, 65, 257}
	for k := 1; k <= 17; k++ {
		ks = append(ks, k)
	}
	for fillName, fill := range kernelFills(rng) {
		for _, k := range ks {
			off := k % 8
			for rows := 1; rows <= 9; rows++ {
				for cols := 1; cols <= 4; cols++ {
					for _, acc := range []bool{false, true} {
						ldc, lda, ldb := cols+off%3, k+off%2, k+(off+1)%3
						c, cBack := panelOperand(rows, cols, ldc, off, fill)
						want, wantBack := twinOperand(c, cBack, off)
						a, _ := panelOperand(rows, k, lda, (off+3)%8, fill)
						b, _ := panelOperand(cols, k, ldb, (off+5)%8, fill)
						dotPanelAVX2(&want[0], ldc, &a[0], lda, rows, &b[0], ldb, cols, k, acc)
						dotPanelAVX512(&c[0], ldc, &a[0], lda, rows, &b[0], ldb, cols, k, acc)
						where := fmt.Sprintf("%s k=%d rows=%d cols=%d acc=%v", fillName, k, rows, cols, acc)
						if !outsideRowsIntact(cBack, rows, cols, ldc, off) {
							t.Fatalf("%s: stored outside the outputs", where)
						}
						if !sameBitsAll(cBack, wantBack) {
							t.Fatalf("%s: differs from dotPanelAVX2", where)
						}
					}
				}
			}
		}
	}
}
