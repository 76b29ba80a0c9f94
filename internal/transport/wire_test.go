package transport

import (
	"math/rand"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// testGrads builds a deterministic multi-tensor gradient set large enough
// that frame and field headers are noise next to the payload.
func testGrads(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][]int{{128, 128}, {128}, {64, 128}, {64}}
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

// TestCompressedPushWireReduction pins the acceptance numbers of the codec
// subsystem: against the identity codec's frame bytes, topk(0.1) pushes must
// shrink the message at least 4×, int8 at least 2× (fp16 trails int8 but
// must still beat dense).
func TestCompressedPushWireReduction(t *testing.T) {
	grads := testGrads(42)
	dense := len(encodeFrame(t, Message{Type: MsgPush, Tensors: ToWireOwned(grads)}))

	sizes := map[string]int{}
	for _, cfg := range []compress.Config{
		{Codec: compress.FP16},
		{Codec: compress.Int8},
		{Codec: compress.TopK, TopK: 0.1},
	} {
		comp, err := compress.NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		msg := Message{Type: MsgPush, Codec: cfg.Codec, Packed: comp.Compress(grads)}
		sizes[cfg.Codec] = len(encodeFrame(t, msg))
	}
	t.Logf("push wire bytes: dense=%d fp16=%d int8=%d topk=%d",
		dense, sizes[compress.FP16], sizes[compress.Int8], sizes[compress.TopK])

	if ratio := float64(dense) / float64(sizes[compress.TopK]); ratio < 4 {
		t.Errorf("topk(0.1) reduces pushed bytes %.2fx, want >= 4x", ratio)
	}
	if ratio := float64(dense) / float64(sizes[compress.Int8]); ratio < 2 {
		t.Errorf("int8 reduces pushed bytes %.2fx, want >= 2x", ratio)
	}
	if sizes[compress.FP16] >= dense {
		t.Errorf("fp16 message (%d bytes) is no smaller than dense (%d bytes)", sizes[compress.FP16], dense)
	}
}

// TestPackedMessageOverTCP round-trips a compressed push and a negotiation
// exchange through the real TCP transport.
func TestPackedMessageOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type acceptResult struct {
		conn Conn
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		c, err := l.Accept()
		accepted <- acceptResult{c, err}
	}()

	worker, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	server := res.conn
	defer server.Close()

	comp, err := compress.NewCompressor(compress.Config{Codec: compress.TopK, TopK: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	grads := testGrads(7)
	sent := Message{
		Type:      MsgPush,
		Worker:    3,
		Iteration: 9,
		Version:   17,
		Codec:     compress.TopK,
		Packed:    comp.Compress(grads),
	}
	if err := worker.Send(sent); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPush || got.Worker != 3 || got.Codec != compress.TopK {
		t.Fatalf("push arrived as %+v", got)
	}
	if len(got.Packed) != len(grads) {
		t.Fatalf("push carries %d packed tensors, want %d", len(got.Packed), len(grads))
	}
	want, err := compress.DecompressAll(sent.Packed)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := compress.DecompressAll(got.Packed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !decoded[i].ApproxEqual(want[i], 0) {
			t.Fatalf("packed tensor %d changed in transit", i)
		}
	}

	// Negotiation fields survive the wire in both directions.
	reg := Message{Type: MsgRegister, Worker: 3, Codec: compress.Auto, CodecTopK: 0.25, CodecPull: true}
	if err := server.Send(reg); err != nil {
		t.Fatal(err)
	}
	echo, err := worker.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if echo.Codec != compress.Auto || echo.CodecTopK != 0.25 || !echo.CodecPull {
		t.Fatalf("negotiation fields arrived as %+v", echo)
	}
}
