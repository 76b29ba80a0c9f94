//go:build !purego

package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFactsMatchKernelView holds the probe to what the kernel reports in
// /proc/cpuinfo: Linux lists avx, avx2, fma and f16c only when the CPU has
// them and it saves the YMM state, and avx512f only when it saves the opmask
// and ZMM state, so each flag there is the conjunction a kernel binding
// tests. Under -tags noavx512 the AVX-512 facts are false by construction.
func TestFactsMatchKernelView(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo on %s: %v", runtime.GOOS, err)
	}
	_, line, ok := strings.Cut(string(raw), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	line, _, _ = strings.Cut(line, "\n")
	flags := map[string]bool{}
	for _, f := range strings.Fields(line) {
		flags[f] = true
	}
	if noAVX512 {
		flags["avx512f"] = false
	}
	for _, c := range []struct {
		flag string
		got  bool
	}{{"avx", YMM}, {"avx2", AVX2 && YMM}, {"fma", FMA && YMM}, {"f16c", F16C && YMM}, {"avx512f", AVX512F && ZMM}} {
		if c.got != flags[c.flag] {
			t.Errorf("probe says %s=%v, /proc/cpuinfo says %v", c.flag, c.got, flags[c.flag])
		}
	}
}
