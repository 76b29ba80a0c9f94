//go:build !noavx512

package cpu

// noAVX512 holds the two AVX-512 facts false (see the package comment).
const noAVX512 = false
