// Package cpu holds the instruction-set facts the assembly kernels of
// internal/tensor and internal/compress bind on. The module has no
// dependencies, so this is the x/sys/cpu probe reduced to what those kernels
// need. Every fact is false off amd64 and under -tags purego, where only the
// Go loops exist; under -tags noavx512 the two AVX-512 facts stay false, so
// the AVX2 kernels bind on a machine that has both. Like purego, noavx512 is
// for make portable's tests of the binding it selects, not a tuning knob.
package cpu

// The facts are set once, in this package's init, before any importer's init
// runs; nothing writes them afterwards. A vector kernel may run only when the
// OS saves the registers it uses: AVX2, FMA and F16C all need YMM as well,
// AVX512F needs ZMM.
var (
	// AVX2 reports 256-bit integer and float vector instructions.
	AVX2 bool
	// FMA reports the FMA3 fused multiply-add instructions.
	FMA bool
	// F16C reports the half-precision conversions VCVTPS2PH and VCVTPH2PS.
	F16C bool
	// YMM reports that the OS saves the YMM registers across context switches.
	YMM bool
	// AVX512F reports the AVX-512 foundation: 512-bit float vectors, opmask
	// registers and EVEX forms of the FMA3 instructions.
	AVX512F bool
	// ZMM reports that the OS saves the opmask registers and all 32 ZMM
	// registers across context switches.
	ZMM bool
)
