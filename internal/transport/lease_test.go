package transport

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"dssp/internal/obs"
	"dssp/internal/tensor"
)

// leasePair returns two connected binary conns over loopback — on TCP, or
// upgraded to the same-host lane — the receiving one metered.
func leasePair(t *testing.T, lane bool) (send, recv *binaryConn, snapshot func() map[string]float64) {
	t.Helper()
	defer SetLaneEnabled(lane)()
	reg := obs.NewRegistry()
	l, err := ListenWireMetered("127.0.0.1:0", WireBinary, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*binaryConn), s.(*binaryConn), reg.Snapshot
}

// payload is a dense push of n float32 values, all v.
func payload(v float32, n int) Message {
	return Message{Type: MsgPush, Tensors: ToWireOwned([]*tensor.Tensor{tensor.Full(v, n)})}
}

func (p *bodyPool) snapshot() (buffers, bytes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sum := 0
	for _, b := range p.free {
		sum += cap(b)
	}
	if sum != p.bytes {
		panic("bodyPool byte accounting drifted")
	}
	return len(p.free), p.bytes
}

// TestReleaseRecyclesBodyOnce covers the lease life cycle: a released body is
// the next frame's buffer, a second Release (from any copy) changes nothing,
// an unreleased body is never handed out again, and the reuse/alloc counters
// tell the two apart.
func TestReleaseRecyclesBodyOnce(t *testing.T) {
	send, recv, snapshot := leasePair(t, false)
	const n = 32 << 10
	next := func(v float32) Message {
		t.Helper()
		if err := send.Send(payload(v, n)); err != nil {
			t.Fatal(err)
		}
		m, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Tensors[0].Data[0] != v || m.Tensors[0].Data[n-1] != v {
			t.Fatalf("frame %v arrived damaged", v)
		}
		return m
	}
	first := next(1)
	addr := &first.Tensors[0].Data[0]
	held := next(2) // first is still leased: this one must not share its buffer
	if &held.Tensors[0].Data[0] == addr {
		t.Fatal("a leased body was handed to a second message")
	}
	copyOfFirst := first
	first.Release()
	copyOfFirst.Release()
	first.Release()
	if buffers, _ := recv.fr.pool.snapshot(); buffers != 1 {
		t.Fatalf("free list holds %d buffers after releasing one body three times, want 1", buffers)
	}
	third := next(3)
	if &third.Tensors[0].Data[0] != addr {
		t.Error("the released body was not the next frame's buffer")
	}
	if held.Tensors[0].Data[0] != 2 || held.Tensors[0].Data[n-1] != 2 {
		t.Error("an unreleased message's payload changed under it")
	}
	var none *Message
	none.Release() // nil-safe
	(&Message{Type: MsgOK}).Release()
	snap := snapshot()
	if reuse, alloc := snap["dssp_transport_recv_body_reuse_total"], snap["dssp_transport_recv_body_alloc_total"]; reuse != 1 || alloc != 2 {
		t.Errorf("recv body counters reuse=%v alloc=%v, want 1 and 2", reuse, alloc)
	}
}

// TestReleaseAfterCloseAndFreeListCap covers the edges of the free list: a
// body released after its connection closed is dropped, a frame larger than
// the byte cap is never retained, and many simultaneously held bodies
// released together leave the list within both caps.
func TestReleaseAfterCloseAndFreeListCap(t *testing.T) {
	send, recv, _ := leasePair(t, false)
	recvOne := func(n int) Message {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- send.Send(payload(1, n)) }()
		m, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return m
	}
	big := recvOne(maxFreeBodyBytes/4 + 1024) // body just over the cap
	big.Release()
	if buffers, bytes := recv.fr.pool.snapshot(); buffers != 0 || bytes != 0 {
		t.Fatalf("an outsized body was retained (%d buffers, %d bytes)", buffers, bytes)
	}
	var held []Message
	for i := 0; i < 5; i++ {
		held = append(held, recvOne(3<<18)) // 3 MiB each, 15 MiB held at once
	}
	for i := range held {
		held[i].Release()
	}
	if _, bytes := recv.fr.pool.snapshot(); bytes > maxFreeBodyBytes {
		t.Fatalf("free list retains %d bytes, cap is %d", bytes, maxFreeBodyBytes)
	}
	held = held[:0]
	for i := 0; i < maxFreeBodies+4; i++ {
		held = append(held, recvOne(2<<10)) // 8 KiB each: under the byte cap, over the entry cap
	}
	for i := range held {
		held[i].Release()
	}
	if buffers, _ := recv.fr.pool.snapshot(); buffers > maxFreeBodies {
		t.Fatalf("free list holds %d buffers, cap is %d", buffers, maxFreeBodies)
	}

	last := recvOne(32 << 10)
	recv.Close()
	last.Release()
	last.Release()
	if buffers, bytes := recv.fr.pool.snapshot(); buffers != 0 || bytes != 0 {
		t.Fatalf("a closed connection's free list holds %d buffers, %d bytes", buffers, bytes)
	}
}

// TestReleaseHookSeesBodyBeforeReuse pins the test hook the ps-level
// poisoning test relies on: the hook runs exactly once per released body,
// before the buffer can be leased again, from any goroutine — a pooled body on
// TCP, an arena slot on the lane, a pooled frame in process.
func TestReleaseHookSeesBodyBeforeReuse(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		send, recv, _ := leasePair(t, false)
		testReleaseHookSeesBodyBeforeReuse(t, send, recv)
	})
	t.Run("lane", func(t *testing.T) {
		send, recv, _ := leasePair(t, true)
		testReleaseHookSeesBodyBeforeReuse(t, send, recv)
	})
	t.Run("channel", func(t *testing.T) {
		send, recv := Pipe()
		t.Cleanup(func() { send.Close(); recv.Close() })
		testReleaseHookSeesBodyBeforeReuse(t, send, recv)
	})
}

func testReleaseHookSeesBodyBeforeReuse(t *testing.T, send, recv Conn) {
	var mu sync.Mutex
	calls := 0
	restore := SetReleaseHook(func(body []byte) {
		mu.Lock()
		calls++
		mu.Unlock()
		poison := math.Float32bits(float32(math.NaN()))
		for i := 0; i+4 <= len(body); i += 4 {
			body[i], body[i+1], body[i+2], body[i+3] = byte(poison), byte(poison>>8), byte(poison>>16), byte(poison>>24)
		}
	})
	defer restore()
	if err := send.Send(payload(1, 8<<10)); err != nil {
		t.Fatal(err)
	}
	m, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	data := m.Tensors[0].Data
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c := m; c.Release() }()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("release hook ran %d times for one body", calls)
	}
	if v := data[len(data)-1]; v == v {
		t.Fatalf("released body reads %v, want the NaN poison", v)
	}
	// The poisoned buffer is the next frame's; the frame must overwrite it.
	if err := send.Send(payload(2, 8<<10)); err != nil {
		t.Fatal(err)
	}
	m2, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m2.Tensors[0].Data {
		if v != 2 {
			t.Fatalf("value %d of the frame read into a recycled body is %v", i, v)
		}
	}
}

// TestReadBodyAllocationBounds pins readBody's two promises for fresh
// buffers. A body just over one read chunk — the everyday 1 MB weights reply
// plus its headers — is allocated once at its full size, not as one chunk
// followed by a full-size buffer and a copy. And a forged length still cannot
// buy memory: with three bytes behind it, a declared quarter-gigabyte body
// costs one chunk and a declared two-chunk body at most two.
func TestReadBodyAllocationBounds(t *testing.T) {
	allocated := func(declared int, present []byte) (n uint64, err error) {
		var before, after runtime.MemStats
		br := bufio.NewReaderSize(bytes.NewReader(present), 16)
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = readBody(br, nil, declared)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	n := bodyReadChunk + 1234
	got, err := allocated(n, make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(n + 64<<10); got > limit {
		t.Errorf("reading a %d-byte body allocated %d bytes, want one buffer of its size", n, got)
	}
	for _, tc := range []struct{ declared, limit int }{
		{maxFrameBody, bodyReadChunk + 64<<10},
		{2 * bodyReadChunk, 2*bodyReadChunk + 64<<10},
		{2*bodyReadChunk + 1, bodyReadChunk + 64<<10},
	} {
		got, err := allocated(tc.declared, []byte{1, 2, 3})
		if err == nil {
			t.Fatalf("a truncated %d-byte body read without error", tc.declared)
		}
		if got > uint64(tc.limit) {
			t.Errorf("a forged %d-byte length backed by 3 bytes allocated %d, limit %d", tc.declared, got, tc.limit)
		}
	}
}
