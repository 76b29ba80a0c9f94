//go:build !purego

#include "textflag.h"

// AVX2+FMA form of the matmul row step (matmul.go: mm4Rows); internal/cpu
// holds the probe that decides whether it may run. The kernel walks 16 floats
// per main-loop pass (two YMM vectors), then at most one 8-float pass, then a
// scalar VFMADD231SS tail, so no load or store ever touches memory past the
// slice lengths; every vector access is unaligned (VMOVUPS / memory-operand
// FMA). Callers guarantee len(b0..b3) >= len(ob) (matmul.go slices all five
// to the same width).

// func fma4RowsAVX2(ob, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
//
// ob[j] = fma(a3,b3[j], fma(a2,b2[j], fma(a1,b1[j], fma(a0,b0[j], ob[j]))))
// for j in [0, len(ob)).
TEXT ·fma4RowsAVX2(SB), NOSPLIT, $0-136
	MOVQ ob_base+0(FP), DI
	MOVQ ob_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSS a0+120(FP), Y0
	VBROADCASTSS a1+124(FP), Y1
	VBROADCASTSS a2+128(FP), Y2
	VBROADCASTSS a3+132(FP), Y3

	MOVQ CX, DX
	SHRQ $4, DX              // DX = 16-float passes
	JZ   fma_tail8

fma_loop16:
	VMOVUPS     (DI), Y4
	VMOVUPS     32(DI), Y5
	VFMADD231PS (R8), Y0, Y4
	VFMADD231PS 32(R8), Y0, Y5
	VFMADD231PS (R9), Y1, Y4
	VFMADD231PS 32(R9), Y1, Y5
	VFMADD231PS (R10), Y2, Y4
	VFMADD231PS 32(R10), Y2, Y5
	VFMADD231PS (R11), Y3, Y4
	VFMADD231PS 32(R11), Y3, Y5
	VMOVUPS     Y4, (DI)
	VMOVUPS     Y5, 32(DI)
	ADDQ        $64, DI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	DECQ        DX
	JNZ         fma_loop16

fma_tail8:
	ANDQ $15, CX             // CX = floats left, < 16
	CMPQ CX, $8
	JLT  fma_tail1
	VMOVUPS     (DI), Y4
	VFMADD231PS (R8), Y0, Y4
	VFMADD231PS (R9), Y1, Y4
	VFMADD231PS (R10), Y2, Y4
	VFMADD231PS (R11), Y3, Y4
	VMOVUPS     Y4, (DI)
	ADDQ        $32, DI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	SUBQ        $8, CX

fma_tail1:
	TESTQ CX, CX
	JZ    fma_done

fma_loop1:
	VMOVSS      (DI), X4
	VFMADD231SS (R8), X0, X4
	VFMADD231SS (R9), X1, X4
	VFMADD231SS (R10), X2, X4
	VFMADD231SS (R11), X3, X4
	VMOVSS      X4, (DI)
	ADDQ        $4, DI
	ADDQ        $4, R8
	ADDQ        $4, R9
	ADDQ        $4, R10
	ADDQ        $4, R11
	DECQ        CX
	JNZ         fma_loop1

fma_done:
	VZEROUPPER
	RET
