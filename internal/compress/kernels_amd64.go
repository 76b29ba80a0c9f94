//go:build !purego

package compress

import "dssp/internal/cpu"

// Implemented in kernels_amd64.s. Each takes a whole number of 8-value
// windows and trusts the other operands to be at least as long.

//go:noescape
func encodeF16F16C(dst []byte, src []float32)

//go:noescape
func encodeF16FeedbackF16C(dst []byte, r, g []float32)

//go:noescape
func decodeF16F16C(dst []float32, src []byte)

//go:noescape
func maxAbsAVX2(data []float32) float32

//go:noescape
func addMaxAbsAVX2(r, g []float32) float32

//go:noescape
func encodeQ8AVX2(dst []byte, src []float32, scale float32)

//go:noescape
func encodeQ8FeedbackAVX2(dst []byte, r []float32, scale float32)

//go:noescape
func decodeQ8AVX2(dst []float32, src []byte, scale float32)

func init() {
	if cpu.AVX2 && cpu.F16C && cpu.YMM {
		encodeF16, encodeF16Feedback, decodeF16 = encodeF16Asm, encodeF16FeedbackAsm, decodeF16Asm
		maxAbs, addMaxAbs = maxAbsAsm, addMaxAbsAsm
		encodeQ8, encodeQ8Feedback, decodeQ8 = encodeQ8Asm, encodeQ8FeedbackAsm, decodeQ8Asm
		kernel = "f16c"
	}
}

// The bound forms: the assembly on the whole windows of eight, the Go loop on
// the up to seven values after them. The reslices are the bounds checks the
// assembly does not make. The two Go loops that read halfTable are skipped
// when there is no tail, so a process whose tensors are whole windows never
// builds the table.

func encodeF16Asm(dst []byte, src []float32) {
	n := len(src) &^ 7
	dst = dst[:2*len(src)]
	encodeF16F16C(dst[:2*n], src[:n])
	encodeF16Go(dst[2*n:], src[n:])
}

func encodeF16FeedbackAsm(dst []byte, r, g []float32) {
	n := len(r) &^ 7
	g, dst = g[:len(r)], dst[:2*len(r)]
	encodeF16FeedbackF16C(dst[:2*n], r[:n], g[:n])
	if n < len(r) {
		encodeF16FeedbackGo(dst[2*n:], r[n:], g[n:])
	}
}

func decodeF16Asm(dst []float32, src []byte) {
	n := len(dst) &^ 7
	src = src[:2*len(dst)]
	decodeF16F16C(dst[:n], src[:2*n])
	if n < len(dst) {
		decodeF16Go(dst[n:], src[2*n:])
	}
}

func maxAbsAsm(data []float32) float32 {
	n := len(data) &^ 7
	return max(maxAbsAVX2(data[:n]), maxAbsGo(data[n:]))
}

func addMaxAbsAsm(r, g []float32) float32 {
	n := len(r) &^ 7
	g = g[:len(r)]
	return max(addMaxAbsAVX2(r[:n], g[:n]), addMaxAbsGo(r[n:], g[n:]))
}

func encodeQ8Asm(dst []byte, src []float32, scale float32) {
	n := len(src) &^ 7
	dst = dst[:len(src)]
	encodeQ8AVX2(dst[:n], src[:n], scale)
	encodeQ8Go(dst[n:], src[n:], scale)
}

func encodeQ8FeedbackAsm(dst []byte, r []float32, scale float32) {
	n := len(r) &^ 7
	dst = dst[:len(r)]
	encodeQ8FeedbackAVX2(dst[:n], r[:n], scale)
	encodeQ8FeedbackGo(dst[n:], r[n:], scale)
}

func decodeQ8Asm(dst []float32, src []byte, scale float32) {
	n := len(dst) &^ 7
	src = src[:len(dst)]
	decodeQ8AVX2(dst[:n], src[:n], scale)
	decodeQ8Go(dst[n:], src[n:], scale)
}
