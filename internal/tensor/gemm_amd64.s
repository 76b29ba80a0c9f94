//go:build !purego

#include "textflag.h"

// Register-tiled AVX2+FMA panels under every matrix product (matmul.go,
// offset.go). The right operand's rows are read through a table, each at its
// own offset into one buffer: a dense operand is the table kk·ldb, a stride-1
// 3×3 convolution's patch matrix the shifted views of its bordered image.
// Where fma4RowsAVX2 folds four k-steps into one output-row block per call —
// the block re-read and re-written every four steps, the right operand
// streamed once per output row — a panel keeps a tile of the output in YMM
// registers across the whole k sweep and reads the right operand once per
// four output rows. One call walks every tile of its panel. Each has an
// AVX-512 form that holds the same tiles at two or four times the width.

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

// Fold the eight lanes of four accumulators into one XMM of four sums, the
// reduction dot products end in: pair sums, lane sums, then the two halves.
#define REDUCE4(y0, y1, y2, y3, x0, xt) \
	VHADDPS      y1, y0, y0 \
	VHADDPS      y3, y2, y2 \
	VHADDPS      y2, y0, y0 \
	VEXTRACTF128 $1, y0, xt \
	VADDPS       xt, x0, x0

// The AVX-512 forms are bound where the CPU and the OS support AVX512F
// (kernels_amd64.go), which is all they use. Each builds every output by the
// chain of its AVX2 twin — the same operations on the same operands in the
// same order, only sixteen lanes at a time — so the two bindings agree bit for
// bit; what they cannot take sixteen lanes at a time (an odd last tile, rows
// after whole quads, fewer than four columns) they hand to the AVX2 panel with
// a tail call, its arguments advanced in place.

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

// func gemmOffPanelAVX2(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, tiles int, add bool)
//
// c[r*ldc+j] = sum over kk of a[r*ars+kk*aks] * b[off[kk]+j] for r in [0,4)
// and j in [0,16*tiles); strides and offsets in elements. Per output element
// the sum is the chain fma4RowsAVX2 and axpySlice build between them: kk
// ascending from +0, one fused multiply-add per step while four steps remain,
// then multiply and add rounded apart for the k%4 tail. With add set the sum
// is then added onto c[r*ldc+j], rounded once more.
TEXT ·gemmOffPanelAVX2(SB), NOSPLIT, $0-73
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), CX
	SHLQ $2, CX
	LEAQ (CX)(CX*2), BX          // 3 c rows, bytes
	MOVQ ars+24(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9          // 3 a rows
	MOVQ aks+32(FP), R10
	SHLQ $2, R10
	MOVQ b+40(FP), AX            // AX: the tile's first column of b

goff_tile:
	MOVQ a+16(FP), SI
	MOVQ off+48(FP), R11         // R11 walks the offset table
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ k+56(FP), DX
	SHRQ $2, DX
	JZ   goff_ktail

goff_k4loop:
	MOVQ (R11), R12
	FMASTEP((AX)(R12*4), 32(AX)(R12*4))
	MOVQ 8(R11), R12
	FMASTEP((AX)(R12*4), 32(AX)(R12*4))
	MOVQ 16(R11), R12
	FMASTEP((AX)(R12*4), 32(AX)(R12*4))
	MOVQ 24(R11), R12
	FMASTEP((AX)(R12*4), 32(AX)(R12*4))
	ADDQ $32, R11
	DECQ DX
	JNZ  goff_k4loop

goff_ktail:
	MOVQ k+56(FP), DX
	ANDQ $3, DX
	JZ   goff_store

goff_ktailloop:
	MOVQ         (R11), R12
	VMOVUPS      (AX)(R12*4), Y8
	VMOVUPS      32(AX)(R12*4), Y9
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
	ADDQ $8, R11
	DECQ DX
	JNZ  goff_ktailloop

goff_store:
	CMPB add+72(FP), $0
	JEQ  goff_put
	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
	VADDPS (DI)(CX*1), Y2, Y2
	VADDPS 32(DI)(CX*1), Y3, Y3
	VADDPS (DI)(CX*2), Y4, Y4
	VADDPS 32(DI)(CX*2), Y5, Y5
	VADDPS (DI)(BX*1), Y6, Y6
	VADDPS 32(DI)(BX*1), Y7, Y7

goff_put:
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
	JNZ  goff_tile
	VZEROUPPER
	RET

// One k-step of the 4×64 tile: four vectors of the b row, one broadcast per
// a row, sixteen single-rounded multiply-adds into Z0-Z15 (row r, vector v in
// Z(4r+v)). SI walks a's k axis.
#define FMASTEP64(b0, b1, b2, b3) \
	VMOVUPS      b0, Z16          \
	VMOVUPS      b1, Z17          \
	VMOVUPS      b2, Z18          \
	VMOVUPS      b3, Z19          \
	VBROADCASTSS (SI), Z20        \
	VBROADCASTSS (SI)(R8*1), Z21  \
	VBROADCASTSS (SI)(R8*2), Z22  \
	VBROADCASTSS (SI)(R9*1), Z23  \
	VFMADD231PS  Z16, Z20, Z0     \
	VFMADD231PS  Z17, Z20, Z1     \
	VFMADD231PS  Z18, Z20, Z2     \
	VFMADD231PS  Z19, Z20, Z3     \
	VFMADD231PS  Z16, Z21, Z4     \
	VFMADD231PS  Z17, Z21, Z5     \
	VFMADD231PS  Z18, Z21, Z6     \
	VFMADD231PS  Z19, Z21, Z7     \
	VFMADD231PS  Z16, Z22, Z8     \
	VFMADD231PS  Z17, Z22, Z9     \
	VFMADD231PS  Z18, Z22, Z10    \
	VFMADD231PS  Z19, Z22, Z11    \
	VFMADD231PS  Z16, Z23, Z12    \
	VFMADD231PS  Z17, Z23, Z13    \
	VFMADD231PS  Z18, Z23, Z14    \
	VFMADD231PS  Z19, Z23, Z15    \
	ADDQ         R10, SI

// The k%4 tail step of the 4×64 tile, rounding the product before the add.
#define MULADD64(a, b, acc) \
	VMULPS b, a, Z24      \
	VADDPS Z24, acc, acc

// func gemmOffPanelAVX512(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, tiles int, add bool)
//
// gemmOffPanelAVX2's contract. Groups of four tiles go through a 4×64 tile
// held in Z0-Z15 — four b loads and four broadcasts per sixteen
// multiply-adds, since a shifted row's loads are unaligned — a pair left
// over through a 4×32 tile in Z0-Z7, and an odd last tile to the AVX2 panel.
// The 4×64 tile's operands take Z16-Z24: VZEROUPPER leaves those, and no
// legacy SSE instruction can name them.
TEXT ·gemmOffPanelAVX512(SB), NOSPLIT, $0-73
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
	CMPQ tiles+64(FP), $4
	JLT  goff512_pair

goff512_quad:
	MOVQ a+16(FP), SI
	MOVQ off+48(FP), R11
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	MOVQ k+56(FP), DX
	SHRQ $2, DX
	JZ   goff512_qktail

goff512_qk4loop:
	MOVQ (R11), R12
	FMASTEP64((AX)(R12*4), 64(AX)(R12*4), 128(AX)(R12*4), 192(AX)(R12*4))
	MOVQ 8(R11), R12
	FMASTEP64((AX)(R12*4), 64(AX)(R12*4), 128(AX)(R12*4), 192(AX)(R12*4))
	MOVQ 16(R11), R12
	FMASTEP64((AX)(R12*4), 64(AX)(R12*4), 128(AX)(R12*4), 192(AX)(R12*4))
	MOVQ 24(R11), R12
	FMASTEP64((AX)(R12*4), 64(AX)(R12*4), 128(AX)(R12*4), 192(AX)(R12*4))
	ADDQ $32, R11
	DECQ DX
	JNZ  goff512_qk4loop

goff512_qktail:
	MOVQ k+56(FP), DX
	ANDQ $3, DX
	JZ   goff512_qstore

goff512_qktailloop:
	MOVQ         (R11), R12
	VMOVUPS      (AX)(R12*4), Z16
	VMOVUPS      64(AX)(R12*4), Z17
	VMOVUPS      128(AX)(R12*4), Z18
	VMOVUPS      192(AX)(R12*4), Z19
	VBROADCASTSS (SI), Z20
	VBROADCASTSS (SI)(R8*1), Z21
	VBROADCASTSS (SI)(R8*2), Z22
	VBROADCASTSS (SI)(R9*1), Z23
	MULADD64(Z20, Z16, Z0)
	MULADD64(Z20, Z17, Z1)
	MULADD64(Z20, Z18, Z2)
	MULADD64(Z20, Z19, Z3)
	MULADD64(Z21, Z16, Z4)
	MULADD64(Z21, Z17, Z5)
	MULADD64(Z21, Z18, Z6)
	MULADD64(Z21, Z19, Z7)
	MULADD64(Z22, Z16, Z8)
	MULADD64(Z22, Z17, Z9)
	MULADD64(Z22, Z18, Z10)
	MULADD64(Z22, Z19, Z11)
	MULADD64(Z23, Z16, Z12)
	MULADD64(Z23, Z17, Z13)
	MULADD64(Z23, Z18, Z14)
	MULADD64(Z23, Z19, Z15)
	ADDQ R10, SI
	ADDQ $8, R11
	DECQ DX
	JNZ  goff512_qktailloop

goff512_qstore:
	CMPB add+72(FP), $0
	JEQ  goff512_qput
	VADDPS (DI), Z0, Z0
	VADDPS 64(DI), Z1, Z1
	VADDPS 128(DI), Z2, Z2
	VADDPS 192(DI), Z3, Z3
	VADDPS (DI)(CX*1), Z4, Z4
	VADDPS 64(DI)(CX*1), Z5, Z5
	VADDPS 128(DI)(CX*1), Z6, Z6
	VADDPS 192(DI)(CX*1), Z7, Z7
	VADDPS (DI)(CX*2), Z8, Z8
	VADDPS 64(DI)(CX*2), Z9, Z9
	VADDPS 128(DI)(CX*2), Z10, Z10
	VADDPS 192(DI)(CX*2), Z11, Z11
	VADDPS (DI)(BX*1), Z12, Z12
	VADDPS 64(DI)(BX*1), Z13, Z13
	VADDPS 128(DI)(BX*1), Z14, Z14
	VADDPS 192(DI)(BX*1), Z15, Z15

goff512_qput:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, (DI)(CX*1)
	VMOVUPS Z5, 64(DI)(CX*1)
	VMOVUPS Z6, 128(DI)(CX*1)
	VMOVUPS Z7, 192(DI)(CX*1)
	VMOVUPS Z8, (DI)(CX*2)
	VMOVUPS Z9, 64(DI)(CX*2)
	VMOVUPS Z10, 128(DI)(CX*2)
	VMOVUPS Z11, 192(DI)(CX*2)
	VMOVUPS Z12, (DI)(BX*1)
	VMOVUPS Z13, 64(DI)(BX*1)
	VMOVUPS Z14, 128(DI)(BX*1)
	VMOVUPS Z15, 192(DI)(BX*1)
	ADDQ $256, DI
	ADDQ $256, AX
	SUBQ $4, tiles+64(FP)
	CMPQ tiles+64(FP), $4
	JGE  goff512_quad

goff512_pair:
	CMPQ tiles+64(FP), $2
	JLT  goff512_odd
	MOVQ a+16(FP), SI
	MOVQ off+48(FP), R11
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ k+56(FP), DX
	SHRQ $2, DX
	JZ   goff512_ktail

goff512_k4loop:
	MOVQ (R11), R12
	FMASTEP512((AX)(R12*4), 64(AX)(R12*4))
	MOVQ 8(R11), R12
	FMASTEP512((AX)(R12*4), 64(AX)(R12*4))
	MOVQ 16(R11), R12
	FMASTEP512((AX)(R12*4), 64(AX)(R12*4))
	MOVQ 24(R11), R12
	FMASTEP512((AX)(R12*4), 64(AX)(R12*4))
	ADDQ $32, R11
	DECQ DX
	JNZ  goff512_k4loop

goff512_ktail:
	MOVQ k+56(FP), DX
	ANDQ $3, DX
	JZ   goff512_store

goff512_ktailloop:
	MOVQ         (R11), R12
	VMOVUPS      (AX)(R12*4), Z8
	VMOVUPS      64(AX)(R12*4), Z9
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
	ADDQ $8, R11
	DECQ DX
	JNZ  goff512_ktailloop

goff512_store:
	CMPB add+72(FP), $0
	JEQ  goff512_put
	VADDPS (DI), Z0, Z0
	VADDPS 64(DI), Z1, Z1
	VADDPS (DI)(CX*1), Z2, Z2
	VADDPS 64(DI)(CX*1), Z3, Z3
	VADDPS (DI)(CX*2), Z4, Z4
	VADDPS 64(DI)(CX*2), Z5, Z5
	VADDPS (DI)(BX*1), Z6, Z6
	VADDPS 64(DI)(BX*1), Z7, Z7

goff512_put:
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

goff512_odd:
	VZEROUPPER
	CMPQ tiles+64(FP), $0
	JEQ  goff512_done
	MOVQ DI, c+0(FP)
	MOVQ AX, b+40(FP)
	JMP  ·gemmOffPanelAVX2(SB)

goff512_done:
	RET

// func dotOffPanelAVX2(c *float32, ldc int, a *float32, lda, rows int, b *float32, off *int, cols, w, h, ldb int, acc bool)
//
// c[i*ldc+j] (+)= sum over s in [0,h) and x in [0,w) of
// a[i*lda+s*w+x] * b[off[j]+s*ldb+x] for i in [0,rows) and j in [0,cols),
// 1 <= cols <= 4; strides and offsets in elements. A dense transposed-B
// product is the one run h = 1, w = k. Rows go two at a time against the four
// b rows, each output summed in eight lanes — per run, whole vectors, then the
// w%8 tail through a masked load, the lanes carried from run to run — and
// reduced once at the end. A missing b row or a missing second a row is read
// again from row 0 and its sums dropped, so every output is built by the same
// instructions whatever edge it sits on: a product does not depend on how its
// rows are split. Where w%8 is 0 a lane sums the terms it would sum over the
// runs laid end to end as one.
TEXT ·dotOffPanelAVX2(SB), NOSPLIT, $0-89
	MOVQ cols+56(FP), BX
	LEAQ ·tailMask+32(SB), AX
	SHLQ $2, BX
	SUBQ BX, AX
	VMOVDQU (AX), X14            // X14: the first cols lanes
	MOVQ w+64(FP), R12
	MOVQ R12, BX
	ANDQ $7, BX
	SHLQ $2, BX
	MOVQ BX, CX                  // CX: bytes of a run after its whole vectors
	LEAQ ·tailMask+32(SB), AX
	SUBQ BX, AX
	VMOVDQU (AX), Y15            // Y15: the first w%8 lanes
	ANDQ $-8, R12
	SHLQ $2, R12                 // R12: bytes of a run covered by whole vectors
	MOVQ ldb+80(FP), DI
	SHLQ $2, DI                  // DI: b's run stride, bytes

dotoff_rows:
	// R8-R11: the b rows, a missing one read from the first again.
	MOVQ b+40(FP), AX
	MOVQ off+48(FP), BX
	MOVQ (BX), R8
	LEAQ (AX)(R8*4), R8
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ cols+56(FP), $2
	JLT  dotoff_arows
	MOVQ 8(BX), R9
	LEAQ (AX)(R9*4), R9
	CMPQ cols+56(FP), $3
	JLT  dotoff_arows
	MOVQ 16(BX), R10
	LEAQ (AX)(R10*4), R10
	CMPQ cols+56(FP), $4
	JLT  dotoff_arows
	MOVQ 24(BX), R11
	LEAQ (AX)(R11*4), R11

dotoff_arows:
	MOVQ a+16(FP), SI
	MOVQ SI, DX                  // DX: the second a row, or the first again
	CMPQ rows+32(FP), $2
	JLT  dotoff_zero
	MOVQ lda+24(FP), AX
	LEAQ (SI)(AX*4), DX

dotoff_zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ h+72(FP), AX            // AX counts the runs

dotoff_run:
	XORQ BX, BX
	CMPQ BX, R12
	JGE  dotoff_ktail

dotoff_k8loop:
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
	JLT  dotoff_k8loop

dotoff_ktail:
	TESTQ CX, CX
	JZ    dotoff_next
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

dotoff_next:
	// a's runs meet end to end; b's are DI bytes apart.
	ADDQ R12, SI
	ADDQ CX, SI
	ADDQ R12, DX
	ADDQ CX, DX
	ADDQ DI, R8
	ADDQ DI, R9
	ADDQ DI, R10
	ADDQ DI, R11
	DECQ AX
	JNZ  dotoff_run

	REDUCE4(Y0, Y1, Y2, Y3, X0, X8)
	REDUCE4(Y4, Y5, Y6, Y7, X4, X9)
	MOVQ c+0(FP), AX
	MOVQ ldc+8(FP), BX
	SHLQ $2, BX
	CMPB acc+88(FP), $0
	JEQ  dotoff_store
	VMASKMOVPS (AX), X14, X8
	VADDPS     X8, X0, X0
	CMPQ rows+32(FP), $2
	JLT  dotoff_store
	VMASKMOVPS (AX)(BX*1), X14, X9
	VADDPS     X9, X4, X4

dotoff_store:
	VMASKMOVPS X0, X14, (AX)
	CMPQ rows+32(FP), $2
	JLT  dotoff_done
	VMASKMOVPS X4, X14, (AX)(BX*1)
	LEAQ (AX)(BX*2), AX
	MOVQ AX, c+0(FP)
	MOVQ lda+24(FP), AX
	SHLQ $3, AX
	ADDQ AX, a+16(FP)            // two a rows on
	SUBQ $2, rows+32(FP)
	JNZ  dotoff_rows

dotoff_done:
	VZEROUPPER
	RET

// func dotOffPanelAVX512(c *float32, ldc int, a *float32, lda, rows int, b *float32, off *int, cols, w, h, ldb int, acc bool)
//
// dotOffPanelAVX2's contract. With four columns, rows go four at a time:
// each ZMM accumulator holds the eight-lane sums of two outputs of one a row,
// b rows 0|1 or 2|3 in its low|high halves, against that a row broadcast into
// both, run by run; the w%8 tail is a zeroing masked load, as VMASKMOVPS is.
// The halves are then split and reduced by REDUCE4 exactly as the AVX2 panel
// reduces its four accumulators of a row. Rows after the last whole quad, and
// any call with fewer than four columns, go to the AVX2 panel.
TEXT ·dotOffPanelAVX512(SB), NOSPLIT, $0-89
	CMPQ cols+56(FP), $4
	JLT  dotoff512_avx2
	CMPQ rows+32(FP), $4
	JLT  dotoff512_avx2
	MOVQ w+64(FP), CX
	ANDQ $7, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1                 // K1: the first w%8 lanes
	SHLQ $2, CX                  // CX: bytes of a run after its whole vectors
	MOVQ lda+24(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R13         // 3 a rows
	MOVQ ldb+80(FP), DI
	SHLQ $2, DI                  // DI: b's run stride, bytes
	MOVQ w+64(FP), R12
	ANDQ $-8, R12
	SHLQ $2, R12                 // R12: bytes of a run covered by whole vectors

dotoff512_quad:
	MOVQ b+40(FP), AX
	MOVQ off+48(FP), BX
	MOVQ (BX), R8
	LEAQ (AX)(R8*4), R8
	MOVQ 8(BX), R9
	LEAQ (AX)(R9*4), R9
	MOVQ 16(BX), R10
	LEAQ (AX)(R10*4), R10
	MOVQ 24(BX), R11
	LEAQ (AX)(R11*4), R11
	MOVQ a+16(FP), SI            // SI walks the quad's a rows
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ h+72(FP), AX            // AX counts the runs

dotoff512_run:
	XORQ BX, BX
	CMPQ BX, R12
	JGE  dotoff512_ktail

dotoff512_k8loop:
	VBROADCASTF64X4 (SI), Z8
	VBROADCASTF64X4 (SI)(DX*1), Z9
	VBROADCASTF64X4 (SI)(DX*2), Z10
	VBROADCASTF64X4 (SI)(R13*1), Z11
	VMOVUPS         (R8)(BX*1), Y12
	VINSERTF64X4    $1, (R9)(BX*1), Z12, Z12
	VMOVUPS         (R10)(BX*1), Y13
	VINSERTF64X4    $1, (R11)(BX*1), Z13, Z13
	VFMADD231PS     Z12, Z8, Z0
	VFMADD231PS     Z13, Z8, Z1
	VFMADD231PS     Z12, Z9, Z2
	VFMADD231PS     Z13, Z9, Z3
	VFMADD231PS     Z12, Z10, Z4
	VFMADD231PS     Z13, Z10, Z5
	VFMADD231PS     Z12, Z11, Z6
	VFMADD231PS     Z13, Z11, Z7
	ADDQ            $32, SI
	ADDQ            $32, BX
	CMPQ            BX, R12
	JLT             dotoff512_k8loop

dotoff512_ktail:
	TESTQ CX, CX
	JZ    dotoff512_next
	VMOVUPS.Z     (SI), K1, Z8
	VSHUFF64X2    $0x44, Z8, Z8, Z8
	VMOVUPS.Z     (SI)(DX*1), K1, Z9
	VSHUFF64X2    $0x44, Z9, Z9, Z9
	VMOVUPS.Z     (SI)(DX*2), K1, Z10
	VSHUFF64X2    $0x44, Z10, Z10, Z10
	VMOVUPS.Z     (SI)(R13*1), K1, Z11
	VSHUFF64X2    $0x44, Z11, Z11, Z11
	VMOVUPS.Z     (R8)(BX*1), K1, Z12
	VMOVUPS.Z     (R9)(BX*1), K1, Z14
	VINSERTF64X4  $1, Y14, Z12, Z12
	VMOVUPS.Z     (R10)(BX*1), K1, Z13
	VMOVUPS.Z     (R11)(BX*1), K1, Z15
	VINSERTF64X4  $1, Y15, Z13, Z13
	VFMADD231PS   Z12, Z8, Z0
	VFMADD231PS   Z13, Z8, Z1
	VFMADD231PS   Z12, Z9, Z2
	VFMADD231PS   Z13, Z9, Z3
	VFMADD231PS   Z12, Z10, Z4
	VFMADD231PS   Z13, Z10, Z5
	VFMADD231PS   Z12, Z11, Z6
	VFMADD231PS   Z13, Z11, Z7

dotoff512_next:
	ADDQ CX, SI                  // a's runs meet end to end
	ADDQ DI, R8
	ADDQ DI, R9
	ADDQ DI, R10
	ADDQ DI, R11
	DECQ AX
	JNZ  dotoff512_run

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
	MOVQ c+0(FP), AX
	MOVQ ldc+8(FP), BX
	SHLQ $2, BX
	LEAQ (BX)(BX*2), SI          // 3 c rows, bytes
	CMPB acc+88(FP), $0
	JEQ  dotoff512_store
	VADDPS (AX), X0, X0
	VADDPS (AX)(BX*1), X2, X2
	VADDPS (AX)(BX*2), X4, X4
	VADDPS (AX)(SI*1), X6, X6

dotoff512_store:
	VMOVUPS X0, (AX)
	VMOVUPS X2, (AX)(BX*1)
	VMOVUPS X4, (AX)(BX*2)
	VMOVUPS X6, (AX)(SI*1)
	LEAQ (AX)(BX*4), AX
	MOVQ AX, c+0(FP)
	LEAQ (DX)(DX*1), AX
	SHLQ $1, AX
	ADDQ AX, a+16(FP)            // four a rows on
	SUBQ $4, rows+32(FP)
	CMPQ rows+32(FP), $4
	JGE  dotoff512_quad
	VZEROUPPER
	CMPQ rows+32(FP), $0
	JEQ  dotoff512_done

dotoff512_avx2:
	JMP ·dotOffPanelAVX2(SB)

dotoff512_done:
	RET
