//go:build !purego

package cpu

// Implemented in cpu_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func init() {
	const (
		fma     = 1 << 12 // leaf 1 ECX
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		f16c    = 1 << 29 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		avx512f = 1 << 16 // leaf 7 EBX
		ymmOS   = 0x6     // XCR0: SSE and AVX state enabled by the OS
		zmmOS   = 0xe6    // XCR0: those, opmask, and the upper halves of ZMM0-15 and ZMM16-31
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	FMA, F16C = ecx1&fma != 0, ecx1&f16c != 0
	// XGETBV faults unless the OS has enabled XSAVE.
	if ecx1&(osxsave|avx) == osxsave|avx {
		xcr0, _ := xgetbv()
		YMM = xcr0&ymmOS == ymmOS
		ZMM = xcr0&zmmOS == zmmOS && !noAVX512
	}
	_, ebx7, _, _ := cpuid(7, 0)
	AVX2 = ebx7&avx2 != 0
	AVX512F = ebx7&avx512f != 0 && !noAVX512
}
