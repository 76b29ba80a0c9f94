package transport

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// encodeFrame is the test-side encoder entry point.
func encodeFrame(t *testing.T, m Message) []byte {
	t.Helper()
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatalf("encode %v frame: %v", m.Type, err)
	}
	return frame
}

// decodeFrame runs the full streaming decode path over raw frame bytes.
func decodeFrame(t *testing.T, frame []byte) Message {
	t.Helper()
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(frame)))
	m, err := fr.readFrame()
	if err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	return m
}

// smallMLPGrads builds the dense gradient layout of the default small-mlp
// model (16 features, 32 hidden units, 4 classes) — the payload every
// default psserver/psworker run pushes per iteration.
func smallMLPGrads(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][]int{{16, 32}, {32}, {32, 4}, {4}}
	out := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		t := tensor.New(s...)
		data := t.Data()
		for j := range data {
			data[j] = float32(rng.NormFloat64() * 0.1)
		}
		out[i] = t
	}
	return out
}

// TestBinaryFrameRoundTripAllFields round-trips a message with every field
// populated — including compressed payloads — and requires exact equality.
func TestBinaryFrameRoundTripAllFields(t *testing.T) {
	comp, err := compress.NewCompressor(compress.Config{Codec: compress.TopK, TopK: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	sent := Message{
		Type:        MsgWeights,
		Worker:      7,
		Iteration:   1234,
		Version:     1 << 40,
		Tensors:     ToWireOwned(testGrads(3)),
		Total:       16,
		Codec:       compress.TopK,
		CodecTopK:   0.25,
		CodecPull:   true,
		Packed:      comp.Compress(testGrads(5)),
		StoreShards: 4,
		Error:       "not actually an error",
	}
	got := decodeFrame(t, encodeFrame(t, sent))
	got.lease = nil
	if !reflect.DeepEqual(sent, got) {
		t.Fatalf("round trip changed the message:\nsent %+v\ngot  %+v", sent, got)
	}
}

// TestBinaryFrameRoundTripEveryType round-trips a minimal message of every
// protocol type, including negative and zero field values.
func TestBinaryFrameRoundTripEveryType(t *testing.T) {
	for ty := MsgRegister; ty <= MsgLeave; ty++ {
		sent := Message{Type: ty, Worker: int(ty) - 2, Version: -9}
		got := decodeFrame(t, encodeFrame(t, sent))
		if !reflect.DeepEqual(sent, got) {
			t.Errorf("%v round trip: sent %+v got %+v", ty, sent, got)
		}
	}
}

// TestBinaryFramePreservesFloatBits requires bit-exact float transport —
// NaN payloads, negative zero, infinities and subnormals included.
func TestBinaryFramePreservesFloatBits(t *testing.T) {
	data := []float32{
		float32(math.NaN()),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		math.Float32frombits(0x80000000), // -0
		math.Float32frombits(1),          // smallest subnormal
		-1.5e-42,
	}
	sent := Message{Type: MsgPush, Tensors: []WireTensor{{Shape: []int{6}, Data: data}}}
	got := decodeFrame(t, encodeFrame(t, sent))
	for i := range data {
		w, g := math.Float32bits(data[i]), math.Float32bits(got.Tensors[0].Data[i])
		if w != g {
			t.Errorf("value %d: bits 0x%08x arrived as 0x%08x", i, w, g)
		}
	}
}

// TestBinaryDecodeAliasesReadBuffer verifies the zero-copy contract: a
// payload-bearing frame decodes to tensors that alias the message's read
// buffer (no per-tensor data allocation), which FromWireOwned then wraps
// without copying either.
func TestBinaryDecodeAliasesReadBuffer(t *testing.T) {
	frame := encodeFrame(t, Message{Type: MsgWeights, Tensors: ToWireOwned(testGrads(11))})
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(frame)))
	m, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		ts, err := FromWireOwned(m.Tensors)
		if err != nil {
			t.Fatal(err)
		}
		if &ts[0].Data()[0] != &m.Tensors[0].Data[0] {
			t.Fatal("FromWireOwned copied the tensor data")
		}
	})
	// One slice for the tensor list, one header per tensor — no data copies.
	if max := float64(2 + 2*len(m.Tensors)); allocs > max {
		t.Errorf("FromWireOwned allocates %.0f objects for %d tensors, want <= %.0f", allocs, len(m.Tensors), max)
	}
}

// TestBinaryWireSizeReduction pins the frame overhead of a dense push: the
// payload travels as raw float32 slabs, so a frame may cost at most a header
// and a few tagged fields over four bytes per value — 64 bytes plus 32 per
// tensor, against the 4.8 KB (small-mlp) and 146 KB (large) the same messages
// took under the gob encoding this protocol replaced.
func TestBinaryWireSizeReduction(t *testing.T) {
	for name, grads := range map[string][]*tensor.Tensor{"small-mlp": smallMLPGrads(1), "large": testGrads(42)} {
		raw := 0
		for _, g := range grads {
			raw += 4 * g.Size()
		}
		m := Message{Type: MsgPush, Worker: 1, Iteration: 100, Version: 250, Tensors: ToWireOwned(grads)}
		frame, ceiling := len(encodeFrame(t, m)), raw+64+32*len(grads)
		t.Logf("%s dense push: %d payload bytes in a %d-byte frame", name, raw, frame)
		if frame > ceiling {
			t.Errorf("%s dense push frame is %d bytes, want <= %d", name, frame, ceiling)
		}
	}
}

// TestBinaryWireAllocationReduction pins the allocation ceiling behind the
// zero-copy design: encoding a dense push into a reused buffer allocates
// nothing, and decoding allocates the tensor list and one shape per tensor —
// nothing that scales with the payload. (gob took 58 and 448 objects.)
func TestBinaryWireAllocationReduction(t *testing.T) {
	m := Message{Type: MsgPush, Worker: 1, Iteration: 9, Version: 17, Tensors: ToWireOwned(testGrads(42))}

	var encBuf []byte
	enc := testing.AllocsPerRun(20, func() {
		out, err := appendFrame(encBuf[:0], &m)
		if err != nil {
			t.Fatal(err)
		}
		encBuf = out
	})
	frame := encodeFrame(t, m)
	dec := testing.AllocsPerRun(20, func() {
		if _, _, err := parseBody(frame[5], frame[headerSize:], nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("push allocs/op: enc=%.0f dec=%.0f", enc, dec)
	if enc > 0 {
		t.Errorf("encode into a reused buffer allocates %.0f objects/op, want 0", enc)
	}
	if max := float64(1 + len(m.Tensors)); dec > max {
		t.Errorf("decode allocates %.0f objects/op for %d tensors, want <= %.0f", dec, len(m.Tensors), max)
	}
}

// TestBinaryControlMessagesReuseScratch verifies that small control frames
// decode into the connection's reusable scratch buffer: a long stream of
// heartbeats and OKs must not allocate per message beyond the message value
// itself.
func TestBinaryControlMessagesReuseScratch(t *testing.T) {
	var stream []byte
	const n = 64
	for i := 0; i < n; i++ {
		var err error
		stream, err = appendFrame(stream, &Message{Type: MsgHeartbeat, Worker: 3})
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(stream)))
	for i := 0; i < n; i++ {
		m, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Type != MsgHeartbeat || m.Worker != 3 {
			t.Fatalf("frame %d decoded as %+v", i, m)
		}
	}
	if cap(fr.scratch) > smallBodyMax {
		t.Errorf("scratch grew to %d bytes over control messages", cap(fr.scratch))
	}
}

// TestBinaryFrameRoundTripLargeBody exercises the chunked body reader on a
// frame well past the 1 MiB read step (an 8 MiB dense push), pinning that
// multi-chunk reads reassemble exactly and that the geometric buffer growth
// stays correct.
func TestBinaryFrameRoundTripLargeBody(t *testing.T) {
	big := tensor.New(2048, 1024) // 8 MiB of float32
	data := big.Data()
	for i := range data {
		data[i] = float32(i%251) * 0.5
	}
	sent := Message{Type: MsgPush, Worker: 1, Tensors: ToWireOwned([]*tensor.Tensor{big})}
	got := decodeFrame(t, encodeFrame(t, sent))
	if len(got.Tensors) != 1 || len(got.Tensors[0].Data) != big.Size() {
		t.Fatalf("large push arrived as %d tensors / %d values", len(got.Tensors), len(got.Tensors[0].Data))
	}
	for i, v := range got.Tensors[0].Data {
		if v != data[i] {
			t.Fatalf("value %d corrupted: %v != %v", i, v, data[i])
		}
	}
}

// TestBinaryDecodeRejectsCorruptFrames spot-checks the decoder's explicit
// failure modes: bad magic, bad version, nonzero reserved bytes, oversized
// declared length, truncation, out-of-order tags, unknown tags, and corrupt
// tensor metadata must all produce errors, never panics or giant
// allocations.
func TestBinaryDecodeRejectsCorruptFrames(t *testing.T) {
	base := encodeFrame(t, Message{Type: MsgPush, Worker: 2, Tensors: ToWireOwned(smallMLPGrads(2))})
	corrupt := func(name string, mutate func(f []byte) []byte, wantSub string) {
		f := append([]byte(nil), base...)
		f = mutate(f)
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(f)))
		_, err := fr.readFrame()
		if err == nil {
			t.Errorf("%s: decode succeeded", name)
		} else if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	corrupt("bad magic", func(f []byte) []byte { f[0] = 'X'; return f }, "magic")
	corrupt("future version", func(f []byte) []byte { f[4] = 9; return f }, "version")
	corrupt("reserved bytes", func(f []byte) []byte { f[6] = 1; return f }, "reserved")
	corrupt("oversized length", func(f []byte) []byte {
		f[8], f[9], f[10], f[11] = 0xff, 0xff, 0xff, 0xff
		return f
	}, "limit")
	corrupt("truncated body", func(f []byte) []byte { return f[:len(f)-3] }, "truncated")
	corrupt("type zero", func(f []byte) []byte { f[5] = 0; return f }, "type 0")

	// Tag-level corruption: re-point the first body byte (tagWorker) at an
	// unknown tag, then at a tag lower than a later one to break ordering.
	corrupt("unknown tag", func(f []byte) []byte { f[headerSize] = 0x7f; return f }, "unknown field tag")
	corrupt("duplicate tag", func(f []byte) []byte {
		// Worker is followed by Tensors here; rewriting the tensor tag to
		// repeat tagWorker violates the ascending-order rule.
		f[headerSize+5] = tagWorker
		return f
	}, "out of order")
}

// TestBinaryRejectsOversizedAndTruncatedCounts hand-crafts bodies with
// forged section counts: the decoder must reject them by arithmetic, not by
// attempting the allocation.
func TestBinaryRejectsOversizedAndTruncatedCounts(t *testing.T) {
	frame := func(body []byte) []byte {
		f := []byte(wireMagic)
		f = append(f, wireVersion, byte(MsgPush), 0, 0)
		f = append(f, byte(len(body)), byte(len(body)>>8), byte(len(body)>>16), byte(len(body)>>24))
		return append(f, body...)
	}
	huge := frame([]byte{tagTensors, 0xff, 0xff, 0xff, 0x7f}) // 2^31-ish tensors, no bytes
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(huge)))
	if _, err := fr.readFrame(); err == nil {
		t.Error("forged tensor count decoded successfully")
	}
	hugePacked := frame([]byte{tagPacked, 0xff, 0xff, 0xff, 0x7f})
	fr = newFrameReader(bufio.NewReader(bytes.NewReader(hugePacked)))
	if _, err := fr.readFrame(); err == nil {
		t.Error("forged packed count decoded successfully")
	}
}

// TestToWireOwnedIntoReusesHeaders verifies the push path's header reuse: a
// second conversion with the same layout allocates nothing and aliases the
// gradients rather than copying them.
func TestToWireOwnedIntoReusesHeaders(t *testing.T) {
	grads := smallMLPGrads(3)
	wire := ToWireOwnedInto(nil, grads)
	if &wire[0].Data[0] != &grads[0].Data()[0] {
		t.Error("ToWireOwnedInto copied the tensor data")
	}
	allocs := testing.AllocsPerRun(20, func() {
		wire = ToWireOwnedInto(wire, grads)
	})
	if allocs != 0 {
		t.Errorf("steady-state ToWireOwnedInto allocates %.0f objects/op, want 0", allocs)
	}
}

// TestPrefetchFlag pins the push's Prefetch flag: it round-trips, its byte
// must be 1, and it is appended after every payload section — a flagged
// push's frame is the unflagged one's plus two body bytes at the end, so a
// push slot placed for either holds both with every slab in place.
func TestPrefetchFlag(t *testing.T) {
	comp, err := compress.NewCompressor(compress.Config{Codec: compress.FP16})
	if err != nil {
		t.Fatal(err)
	}
	for _, plain := range []Message{
		{Type: MsgPush, Worker: 3, Iteration: 7, Version: 41, Tensors: ToWireOwned(testGrads(7))},
		{Type: MsgPush, Worker: 3, Iteration: 7, Version: 41, Codec: compress.FP16, Packed: comp.Compress(testGrads(7))},
	} {
		flagged := plain
		flagged.Prefetch = true
		got := decodeFrame(t, encodeFrame(t, flagged))
		got.lease = nil
		if !reflect.DeepEqual(flagged, got) {
			t.Fatalf("round trip changed the message:\nsent %+v\ngot  %+v", flagged, got)
		}
		a, b := encodeFrame(t, plain), encodeFrame(t, flagged)
		if len(b) != len(a)+2 || !bytes.Equal(a[headerSize:], b[headerSize:len(a)]) || b[len(a)] != tagPrefetch || b[len(a)+1] != 1 {
			t.Fatalf("the flag is not two bytes after an unchanged body:\nplain   % x\nflagged % x", a[len(a)-8:], b[len(b)-10:])
		}
		b[len(b)-1] = 2
		if _, err := newFrameReader(bufio.NewReader(bytes.NewReader(b))).readFrame(); err == nil || !strings.Contains(err.Error(), "Prefetch byte") {
			t.Fatalf("a Prefetch byte of 2 decoded: %v", err)
		}
	}
}
