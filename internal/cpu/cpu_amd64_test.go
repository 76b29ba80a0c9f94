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
// them and it saves the YMM state, so each flag there is the conjunction a
// kernel binding tests.
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
	for _, c := range []struct {
		flag string
		got  bool
	}{{"avx", YMM}, {"avx2", AVX2 && YMM}, {"fma", FMA && YMM}, {"f16c", F16C && YMM}} {
		if c.got != flags[c.flag] {
			t.Errorf("probe says %s=%v, /proc/cpuinfo says %v", c.flag, c.got, flags[c.flag])
		}
	}
}
