//go:build !purego

package tensor

import "dssp/internal/cpu"

// Implemented in kernels_amd64.s.

//go:noescape
func fma4RowsAVX2(ob, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

//go:noescape
func dot4AVX2(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)

// The fan-out thresholds follow the kernels: they price a pool wake-up in
// flops, and the assembly does 5-7× the flops per microsecond. Measured on the
// reference box (2 cores, MatMulInto, serial vs forced fan-out, µs): 128³
// (4.2 Mflop, BenchmarkMatMul128's shape) 139 vs 166; 16×144×1024 (4.7 Mflop,
// the widest ResNet-8 conv product) 125 vs 160; 4×8192×32 (2.1 Mflop, the wide
// MLP's dense layer) 140 vs 141; 192³ (14 Mflop) 420 vs 330; 256³ (34 Mflop)
// 1000 vs 585; 512³ 7700 vs 3900. A wake-up costs ≈100 µs, so fan-out breaks
// even near 0.2 ms of serial work (≈7 Mflop at the ≈33 Gflop/s reached here)
// and pays clearly from ≈0.5 ms, the same half millisecond 1<<21 stands for
// at the Go loops' rate. The grain keeps its ratio to the threshold; two cores
// cannot measure it (chunks are capped at GOMAXPROCS).
const (
	asmParallelMinFlops = 1 << 24
	asmGrainFlops       = 1 << 21
)

func init() {
	if cpu.AVX2 && cpu.FMA && cpu.YMM {
		fma4Rows, dot4, asmKernels = fma4RowsAVX2, dot4AVX2, true
		mmParallelMinFlops, mmGrainFlops = asmParallelMinFlops, asmGrainFlops
	}
}
