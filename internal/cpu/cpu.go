// Package cpu holds the instruction-set facts the assembly kernels of
// internal/tensor and internal/compress bind on. The module has no
// dependencies, so this is the x/sys/cpu probe reduced to what those kernels
// need. Every fact is false off amd64 and under -tags purego, where only the
// Go loops exist.
package cpu

// The facts are set once, in this package's init, before any importer's init
// runs; nothing writes them afterwards. A vector kernel may run only when the
// OS saves the registers it uses: AVX2, FMA and F16C all need YMM as well.
var (
	// AVX2 reports 256-bit integer and float vector instructions.
	AVX2 bool
	// FMA reports the FMA3 fused multiply-add instructions.
	FMA bool
	// F16C reports the half-precision conversions VCVTPS2PH and VCVTPH2PS.
	F16C bool
	// YMM reports that the OS saves the YMM registers across context switches.
	YMM bool
)
