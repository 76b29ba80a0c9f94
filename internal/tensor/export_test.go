package tensor

import (
	"sync/atomic"
	"testing"
)

// countChunks counts, from here to the end of the test, the chunks every
// fanned-out product runs (mmChunkHook). Each call starts a new count.
func countChunks(t *testing.T) *atomic.Int64 {
	t.Helper()
	var chunks atomic.Int64
	mmChunkHook = func(i0, i1 int) { chunks.Add(1) }
	t.Cleanup(func() { mmChunkHook = nil })
	return &chunks
}

// mustHaveSplit fails the test unless a product of m rows, run with the
// threshold forced to zero, was split into more than one chunk: a product of
// one row never is (mmSerial), every other one must be, or the test that
// forced it checks the serial path twice.
func mustHaveSplit(t *testing.T, chunks *atomic.Int64, m int, product string) {
	t.Helper()
	if got := chunks.Load(); m > 1 && got < 2 {
		t.Fatalf("%s of %d rows ran as %d chunk(s) with the threshold forced to 0: the parallel path was not taken", product, m, got)
	}
}
