//go:build !purego

#include "textflag.h"

// Register-tiled AVX2+FMA panels under the three matrix products (matmul.go).
// Where fma4RowsAVX2 folds four k-steps into one output-row block per call —
// the block re-read and re-written every four steps, the right operand
// streamed once per output row — a panel keeps a tile of the output in YMM
// registers across the whole k sweep and reads the right operand once per
// four output rows. One call walks every tile of its panel. The AVX-512
// forms at the end of the file hold the same tiles at twice the width.

// ·tailMask is eight all-ones words followed by eight zero words: the 32
// (or 16) bytes at offset 32-4r are a lane mask with the first r lanes set.
DATA ·tailMask+0(SB)/8, $0xffffffffffffffff
DATA ·tailMask+8(SB)/8, $0xffffffffffffffff
DATA ·tailMask+16(SB)/8, $0xffffffffffffffff
DATA ·tailMask+24(SB)/8, $0xffffffffffffffff
DATA ·tailMask+32(SB)/8, $0
DATA ·tailMask+40(SB)/8, $0
DATA ·tailMask+48(SB)/8, $0
DATA ·tailMask+56(SB)/8, $0
GLOBL ·tailMask(SB), RODATA|NOPTR, $64

// One k-step of the 4×16 tile: two vectors of the b row, one broadcast per a
// row, eight single-rounded multiply-adds. SI walks a's k axis.
#define FMASTEP(b0, b1) \
	VMOVUPS      b0, Y8          \
	VMOVUPS      b1, Y9          \
	VBROADCASTSS (SI), Y10       \
	VBROADCASTSS (SI)(R8*1), Y11 \
	VBROADCASTSS (SI)(R8*2), Y12 \
	VBROADCASTSS (SI)(R9*1), Y13 \
	VFMADD231PS  Y8, Y10, Y0     \
	VFMADD231PS  Y9, Y10, Y1     \
	VFMADD231PS  Y8, Y11, Y2     \
	VFMADD231PS  Y9, Y11, Y3     \
	VFMADD231PS  Y8, Y12, Y4     \
	VFMADD231PS  Y9, Y12, Y5     \
	VFMADD231PS  Y8, Y13, Y6     \
	VFMADD231PS  Y9, Y13, Y7     \
	ADDQ         R10, SI

// The same step rounding the product before the add, as axpySlice does.
#define MULADD(a, b, acc) \
	VMULPS b, a, Y14      \
	VADDPS Y14, acc, acc

// func gemmPanelAVX2(c *float32, ldc int, a *float32, ars, aks int, b *float32, ldb, k, tiles int, acc bool)
//
// c[r*ldc+j] (+)= sum over kk of a[r*ars+kk*aks] * b[kk*ldb+j] for r in [0,4)
// and j in [0,16*tiles); strides in elements. Per output element the sum is
// the chain fma4RowsAVX2 and axpySlice build between them: kk ascending, one
// fused multiply-add per step while four steps remain, then multiply and add
// rounded apart for the k%4 tail, starting from c (acc) or from +0.
TEXT ·gemmPanelAVX2(SB), NOSPLIT, $0-73
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	SHLQ $2, CX
	LEAQ (CX)(CX*2), BX          // 3 c rows, bytes
	MOVQ ars+24(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9          // 3 a rows
	MOVQ aks+32(FP), R10
	SHLQ $2, R10
	MOVQ b+40(FP), AX
	MOVQ ldb+48(FP), R11
	SHLQ $2, R11
	LEAQ (R11)(R11*2), R12       // 3 b rows

gemm_tile:
	MOVQ a+16(FP), SI
	MOVQ AX, R13                 // R13 walks b's k axis
	CMPB acc+72(FP), $0
	JEQ  gemm_zero
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(CX*1), Y2
	VMOVUPS 32(DI)(CX*1), Y3
	VMOVUPS (DI)(CX*2), Y4
	VMOVUPS 32(DI)(CX*2), Y5
	VMOVUPS (DI)(BX*1), Y6
	VMOVUPS 32(DI)(BX*1), Y7
	JMP  gemm_k4

gemm_zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gemm_k4:
	MOVQ k+56(FP), DX
	SHRQ $2, DX
	JZ   gemm_ktail

gemm_k4loop:
	FMASTEP((R13), 32(R13))
	FMASTEP((R13)(R11*1), 32(R13)(R11*1))
	FMASTEP((R13)(R11*2), 32(R13)(R11*2))
	FMASTEP((R13)(R12*1), 32(R13)(R12*1))
	LEAQ (R13)(R11*4), R13
	DECQ DX
	JNZ  gemm_k4loop

gemm_ktail:
	MOVQ k+56(FP), DX
	ANDQ $3, DX
	JZ   gemm_store

gemm_ktailloop:
	VMOVUPS      (R13), Y8
	VMOVUPS      32(R13), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R8*1), Y11
	VBROADCASTSS (SI)(R8*2), Y12
	VBROADCASTSS (SI)(R9*1), Y13
	MULADD(Y10, Y8, Y0)
	MULADD(Y10, Y9, Y1)
	MULADD(Y11, Y8, Y2)
	MULADD(Y11, Y9, Y3)
	MULADD(Y12, Y8, Y4)
	MULADD(Y12, Y9, Y5)
	MULADD(Y13, Y8, Y6)
	MULADD(Y13, Y9, Y7)
	ADDQ R10, SI
	ADDQ R11, R13
	DECQ DX
	JNZ  gemm_ktailloop

gemm_store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(CX*1)
	VMOVUPS Y3, 32(DI)(CX*1)
	VMOVUPS Y4, (DI)(CX*2)
	VMOVUPS Y5, 32(DI)(CX*2)
	VMOVUPS Y6, (DI)(BX*1)
	VMOVUPS Y7, 32(DI)(BX*1)
	ADDQ $64, DI
	ADDQ $64, AX
	DECQ tiles+64(FP)
	JNZ  gemm_tile
	VZEROUPPER
	RET

// Fold the eight lanes of four accumulators into one XMM of four sums, the
// reduction dot products end in: pair sums, lane sums, then the two halves.
#define REDUCE4(y0, y1, y2, y3, x0, xt) \
	VHADDPS      y1, y0, y0 \
	VHADDPS      y3, y2, y2 \
	VHADDPS      y2, y0, y0 \
	VEXTRACTF128 $1, y0, xt \
	VADDPS       xt, x0, x0

// func dotPanelAVX2(c *float32, ldc int, a *float32, lda, rows int, b *float32, ldb, cols, k int, acc bool)
//
// c[i*ldc+j] (+)= sum over kk of a[i*lda+kk] * b[j*ldb+kk] for i in [0,rows)
// and j in [0,cols), 1 <= cols <= 4; strides in elements. Rows go two at a
// time against the four b rows, each output summed in eight lanes (the k%8
// tail through a masked load) and reduced once at the end. A missing b row
// or a missing second a row is read again from row 0 and its sums dropped,
// so every output is built by the same instructions whatever edge it sits
// on: a product does not depend on how its rows are split.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $0-73
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	SHLQ $2, CX
	MOVQ a+16(FP), SI
	MOVQ rows+32(FP), R13
	MOVQ b+40(FP), R8
	MOVQ ldb+48(FP), AX
	SHLQ $2, AX
	MOVQ cols+56(FP), BX
	LEAQ (R8)(AX*1), R9
	CMPQ BX, $2
	CMOVQLT R8, R9
	LEAQ (R8)(AX*2), R10
	CMPQ BX, $3
	CMOVQLT R8, R10
	LEAQ (AX)(AX*2), R11
	ADDQ R8, R11
	CMPQ BX, $4
	CMOVQLT R8, R11
	LEAQ ·tailMask+32(SB), AX
	SHLQ $2, BX
	SUBQ BX, AX
	VMOVDQU (AX), X14            // X14: the first cols lanes
	MOVQ k+64(FP), R12
	MOVQ R12, BX
	ANDQ $7, BX
	SHLQ $2, BX
	LEAQ ·tailMask+32(SB), AX
	SUBQ BX, AX
	VMOVDQU (AX), Y15            // Y15: the first k%8 lanes
	ANDQ $-8, R12
	SHLQ $2, R12                 // R12: bytes of k covered by whole vectors

dot_rows:
	MOVQ SI, DX                  // DX: the second a row, or the first again
	CMPQ R13, $2
	JLT  dot_zero
	MOVQ lda+24(FP), AX
	LEAQ (SI)(AX*4), DX

dot_zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ BX, BX
	CMPQ BX, R12
	JGE  dot_ktail

dot_k8loop:
	VMOVUPS     (SI)(BX*1), Y8
	VMOVUPS     (DX)(BX*1), Y9
	VMOVUPS     (R8)(BX*1), Y10
	VMOVUPS     (R9)(BX*1), Y11
	VMOVUPS     (R10)(BX*1), Y12
	VMOVUPS     (R11)(BX*1), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7
	ADDQ $32, BX
	CMPQ BX, R12
	JLT  dot_k8loop

dot_ktail:
	TESTQ $7, k+64(FP)
	JZ    dot_reduce
	VMASKMOVPS  (SI)(BX*1), Y15, Y8
	VMASKMOVPS  (DX)(BX*1), Y15, Y9
	VMASKMOVPS  (R8)(BX*1), Y15, Y10
	VMASKMOVPS  (R9)(BX*1), Y15, Y11
	VMASKMOVPS  (R10)(BX*1), Y15, Y12
	VMASKMOVPS  (R11)(BX*1), Y15, Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7

dot_reduce:
	REDUCE4(Y0, Y1, Y2, Y3, X0, X8)
	REDUCE4(Y4, Y5, Y6, Y7, X4, X9)
	CMPB acc+72(FP), $0
	JEQ  dot_store
	VMASKMOVPS (DI), X14, X8
	VADDPS     X8, X0, X0
	CMPQ R13, $2
	JLT  dot_store
	VMASKMOVPS (DI)(CX*1), X14, X9
	VADDPS     X9, X4, X4

dot_store:
	VMASKMOVPS X0, X14, (DI)
	CMPQ R13, $2
	JLT  dot_done
	VMASKMOVPS X4, X14, (DI)(CX*1)
	MOVQ lda+24(FP), AX
	SHLQ $3, AX
	ADDQ AX, SI                  // two a rows on
	LEAQ (DI)(CX*2), DI
	SUBQ $2, R13
	JNZ  dot_rows

dot_done:
	VZEROUPPER
	RET

// AVX-512 forms of the two panels above, bound where the CPU and the OS
// support AVX512F (kernels_amd64.go), which is all they use. Each builds every
// output by the chain of its AVX2 twin — the same operations on the same
// operands in the same order, only sixteen lanes at a time — so the two
// bindings agree bit for bit; what they cannot take sixteen lanes at a time
// (an odd last tile, rows after whole quads, fewer than four columns) they
// hand to the AVX2 panel with a tail call, its arguments advanced in place.
// Only Z0-Z15 are used, which VZEROUPPER clears as it does Y0-Y15.

// One k-step of the 4×32 tile: two vectors of the b row, one broadcast per a
// row, eight single-rounded multiply-adds (FMASTEP at twice the width).
#define FMASTEP512(b0, b1) \
	VMOVUPS      b0, Z8          \
	VMOVUPS      b1, Z9          \
	VBROADCASTSS (SI), Z10       \
	VBROADCASTSS (SI)(R8*1), Z11 \
	VBROADCASTSS (SI)(R8*2), Z12 \
	VBROADCASTSS (SI)(R9*1), Z13 \
	VFMADD231PS  Z8, Z10, Z0     \
	VFMADD231PS  Z9, Z10, Z1     \
	VFMADD231PS  Z8, Z11, Z2     \
	VFMADD231PS  Z9, Z11, Z3     \
	VFMADD231PS  Z8, Z12, Z4     \
	VFMADD231PS  Z9, Z12, Z5     \
	VFMADD231PS  Z8, Z13, Z6     \
	VFMADD231PS  Z9, Z13, Z7     \
	ADDQ         R10, SI

// The k%4 tail step, rounding the product before the add (MULADD).
#define MULADD512(a, b, acc) \
	VMULPS b, a, Z14      \
	VADDPS Z14, acc, acc

// func gemmPanelAVX512(c *float32, ldc int, a *float32, ars, aks int, b *float32, ldb, k, tiles int, acc bool)
//
// gemmPanelAVX2's contract: tiles counts 16-column tiles. Pairs of them go
// through a 4×32 tile held in Z0-Z7; an odd last one goes to the AVX2 panel.
TEXT ·gemmPanelAVX512(SB), NOSPLIT, $0-73
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	SHLQ $2, CX
	LEAQ (CX)(CX*2), BX          // 3 c rows, bytes
	MOVQ ars+24(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9          // 3 a rows
	MOVQ aks+32(FP), R10
	SHLQ $2, R10
	MOVQ b+40(FP), AX
	MOVQ ldb+48(FP), R11
	SHLQ $2, R11
	LEAQ (R11)(R11*2), R12       // 3 b rows
	CMPQ tiles+64(FP), $2
	JLT  gemm512_odd

gemm512_tile:
	MOVQ a+16(FP), SI
	MOVQ AX, R13                 // R13 walks b's k axis
	CMPB acc+72(FP), $0
	JEQ  gemm512_zero
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS (DI)(CX*1), Z2
	VMOVUPS 64(DI)(CX*1), Z3
	VMOVUPS (DI)(CX*2), Z4
	VMOVUPS 64(DI)(CX*2), Z5
	VMOVUPS (DI)(BX*1), Z6
	VMOVUPS 64(DI)(BX*1), Z7
	JMP  gemm512_k4

gemm512_zero:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

gemm512_k4:
	MOVQ k+56(FP), DX
	SHRQ $2, DX
	JZ   gemm512_ktail

gemm512_k4loop:
	FMASTEP512((R13), 64(R13))
	FMASTEP512((R13)(R11*1), 64(R13)(R11*1))
	FMASTEP512((R13)(R11*2), 64(R13)(R11*2))
	FMASTEP512((R13)(R12*1), 64(R13)(R12*1))
	LEAQ (R13)(R11*4), R13
	DECQ DX
	JNZ  gemm512_k4loop

gemm512_ktail:
	MOVQ k+56(FP), DX
	ANDQ $3, DX
	JZ   gemm512_store

gemm512_ktailloop:
	VMOVUPS      (R13), Z8
	VMOVUPS      64(R13), Z9
	VBROADCASTSS (SI), Z10
	VBROADCASTSS (SI)(R8*1), Z11
	VBROADCASTSS (SI)(R8*2), Z12
	VBROADCASTSS (SI)(R9*1), Z13
	MULADD512(Z10, Z8, Z0)
	MULADD512(Z10, Z9, Z1)
	MULADD512(Z11, Z8, Z2)
	MULADD512(Z11, Z9, Z3)
	MULADD512(Z12, Z8, Z4)
	MULADD512(Z12, Z9, Z5)
	MULADD512(Z13, Z8, Z6)
	MULADD512(Z13, Z9, Z7)
	ADDQ R10, SI
	ADDQ R11, R13
	DECQ DX
	JNZ  gemm512_ktailloop

gemm512_store:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(CX*1)
	VMOVUPS Z3, 64(DI)(CX*1)
	VMOVUPS Z4, (DI)(CX*2)
	VMOVUPS Z5, 64(DI)(CX*2)
	VMOVUPS Z6, (DI)(BX*1)
	VMOVUPS Z7, 64(DI)(BX*1)
	ADDQ $128, DI
	ADDQ $128, AX
	SUBQ $2, tiles+64(FP)
	CMPQ tiles+64(FP), $2
	JGE  gemm512_tile
	VZEROUPPER

gemm512_odd:
	CMPQ tiles+64(FP), $0
	JEQ  gemm512_done
	MOVQ DI, c+0(FP)
	MOVQ AX, b+40(FP)
	JMP  ·gemmPanelAVX2(SB)

gemm512_done:
	RET

// func dotPanelAVX512(c *float32, ldc int, a *float32, lda, rows int, b *float32, ldb, cols, k int, acc bool)
//
// dotPanelAVX2's contract. With four columns, rows go four at a time: each
// ZMM accumulator holds the eight-lane sums of two outputs of one a row, b
// rows 0|1 or 2|3 in its low|high halves, against that a row broadcast into
// both; the k%8 tail is a zeroing masked load, as VMASKMOVPS is. The halves
// are then split and reduced by REDUCE4 exactly as the AVX2 panel reduces
// its four accumulators of a row. Rows after the last whole quad, and any
// call with fewer than four columns, go to the AVX2 panel.
TEXT ·dotPanelAVX512(SB), NOSPLIT, $0-73
	CMPQ cols+56(FP), $4
	JLT  dot512_avx2
	CMPQ rows+32(FP), $4
	JLT  dot512_avx2
	MOVQ k+64(FP), CX
	ANDQ $7, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1                 // K1: the first k%8 lanes
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	SHLQ $2, CX
	LEAQ (CX)(CX*2), R10         // 3 c rows, bytes
	MOVQ a+16(FP), R9            // R9: the quad's first a row
	MOVQ lda+24(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R13         // 3 a rows
	MOVQ ldb+48(FP), AX
	SHLQ $2, AX
	LEAQ (AX)(AX*2), R11         // 3 b rows
	MOVQ k+64(FP), R12
	SHRQ $3, R12                 // R12: whole vectors of k

dot512_quad:
	MOVQ R9, SI                  // SI walks the a rows' k axis
	MOVQ b+40(FP), R8            // R8 the b rows'
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ R12, BX
	TESTQ BX, BX
	JZ   dot512_ktail

dot512_k8loop:
	VBROADCASTF64X4 (SI), Z8
	VBROADCASTF64X4 (SI)(DX*1), Z9
	VBROADCASTF64X4 (SI)(DX*2), Z10
	VBROADCASTF64X4 (SI)(R13*1), Z11
	VMOVUPS         (R8), Y12
	VINSERTF64X4    $1, (R8)(AX*1), Z12, Z12
	VMOVUPS         (R8)(AX*2), Y13
	VINSERTF64X4    $1, (R8)(R11*1), Z13, Z13
	VFMADD231PS     Z12, Z8, Z0
	VFMADD231PS     Z13, Z8, Z1
	VFMADD231PS     Z12, Z9, Z2
	VFMADD231PS     Z13, Z9, Z3
	VFMADD231PS     Z12, Z10, Z4
	VFMADD231PS     Z13, Z10, Z5
	VFMADD231PS     Z12, Z11, Z6
	VFMADD231PS     Z13, Z11, Z7
	ADDQ            $32, SI
	ADDQ            $32, R8
	DECQ            BX
	JNZ             dot512_k8loop

dot512_ktail:
	TESTQ $7, k+64(FP)
	JZ    dot512_reduce
	VMOVUPS.Z     (SI), K1, Z8
	VSHUFF64X2    $0x44, Z8, Z8, Z8
	VMOVUPS.Z     (SI)(DX*1), K1, Z9
	VSHUFF64X2    $0x44, Z9, Z9, Z9
	VMOVUPS.Z     (SI)(DX*2), K1, Z10
	VSHUFF64X2    $0x44, Z10, Z10, Z10
	VMOVUPS.Z     (SI)(R13*1), K1, Z11
	VSHUFF64X2    $0x44, Z11, Z11, Z11
	VMOVUPS.Z     (R8), K1, Z12
	VMOVUPS.Z     (R8)(AX*1), K1, Z14
	VINSERTF64X4  $1, Y14, Z12, Z12
	VMOVUPS.Z     (R8)(AX*2), K1, Z13
	VMOVUPS.Z     (R8)(R11*1), K1, Z15
	VINSERTF64X4  $1, Y15, Z13, Z13
	VFMADD231PS   Z12, Z8, Z0
	VFMADD231PS   Z13, Z8, Z1
	VFMADD231PS   Z12, Z9, Z2
	VFMADD231PS   Z13, Z9, Z3
	VFMADD231PS   Z12, Z10, Z4
	VFMADD231PS   Z13, Z10, Z5
	VFMADD231PS   Z12, Z11, Z6
	VFMADD231PS   Z13, Z11, Z7

dot512_reduce:
	VEXTRACTF64X4 $1, Z0, Y8
	VEXTRACTF64X4 $1, Z1, Y9
	REDUCE4(Y0, Y8, Y1, Y9, X0, X10)
	VEXTRACTF64X4 $1, Z2, Y8
	VEXTRACTF64X4 $1, Z3, Y9
	REDUCE4(Y2, Y8, Y3, Y9, X2, X10)
	VEXTRACTF64X4 $1, Z4, Y8
	VEXTRACTF64X4 $1, Z5, Y9
	REDUCE4(Y4, Y8, Y5, Y9, X4, X10)
	VEXTRACTF64X4 $1, Z6, Y8
	VEXTRACTF64X4 $1, Z7, Y9
	REDUCE4(Y6, Y8, Y7, Y9, X6, X10)
	CMPB acc+72(FP), $0
	JEQ  dot512_store
	VADDPS (DI), X0, X0
	VADDPS (DI)(CX*1), X2, X2
	VADDPS (DI)(CX*2), X4, X4
	VADDPS (DI)(R10*1), X6, X6

dot512_store:
	VMOVUPS X0, (DI)
	VMOVUPS X2, (DI)(CX*1)
	VMOVUPS X4, (DI)(CX*2)
	VMOVUPS X6, (DI)(R10*1)
	LEAQ (DI)(CX*4), DI
	LEAQ (R9)(DX*4), R9
	SUBQ $4, rows+32(FP)
	CMPQ rows+32(FP), $4
	JGE  dot512_quad
	VZEROUPPER
	CMPQ rows+32(FP), $0
	JEQ  dot512_done
	MOVQ DI, c+0(FP)
	MOVQ R9, a+16(FP)

dot512_avx2:
	JMP ·dotPanelAVX2(SB)

dot512_done:
	RET
