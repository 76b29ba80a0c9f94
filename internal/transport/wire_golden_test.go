package transport

import (
	"encoding/hex"
	"math"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// goldenFP16Tensors is a fixed input that reaches every fp16 encoding path
// short of overflow: normal halfs, subnormal halfs (the magnitudes a
// converged model pushes), values below half the smallest subnormal, exact
// ties, and both zeros.
func goldenFP16Tensors() []*tensor.Tensor {
	negZero := float32(math.Copysign(0, -1))
	return []*tensor.Tensor{
		tensor.FromSlice([]float32{1, -0.5, 3.0517578e-5, 1e-7, -65504, 0.1}, 2, 3),
		tensor.FromSlice([]float32{negZero, 2.5e-8, -1e-5, 1000.123, 8.940697e-8, 0, 3.1e-6}, 7),
	}
}

// TestGoldenFP16Frames pins the bytes of fp16 MsgPush frames (the first push
// of a compressor, and the second, which carries the first one's residual)
// and of an fp16 MsgWeights frame. The expected bytes were produced by the
// scalar converters and the two-pass error feedback that the slice kernels
// in internal/compress replaced; a codec change that moves one wire bit
// fails here.
func TestGoldenFP16Frames(t *testing.T) {
	comp, err := compress.NewCompressor(compress.Config{Codec: compress.FP16})
	if err != nil {
		t.Fatal(err)
	}
	grads := goldenFP16Tensors()
	frame := func(m Message) string {
		t.Helper()
		b, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}
	push := func() string {
		return frame(Message{Type: MsgPush, Worker: 3, Iteration: 7, Version: 41, Codec: compress.FP16, Packed: comp.Compress(grads)})
	}
	got := map[string]string{
		"push 1": push(),
		"push 2": push(),
		"weights": frame(Message{
			Type: MsgWeights, Worker: 3, Total: 4, Version: 42,
			Codec:  compress.FP16,
			Packed: compress.Pack(grads, compress.Config{Codec: compress.FP16, Pull: true}),
		}),
	}
	for name, want := range goldenFP16Frames {
		if got[name] != want {
			t.Errorf("%s frame:\n got %s\nwant %s", name, got[name], want)
		}
	}
}

// TestGoldenPackedReferenceFrame pins the bytes of the reference frame
// standing for the golden fp16 Weights reply on a lane connection whose peer
// mapped the server's region (tagPackedRefs): the reply's fields, then the
// packed reference section — slot 5, the 88-byte logical body, two tensors,
// each its packed header and its payload's region offset.
func TestGoldenPackedReferenceFrame(t *testing.T) {
	m := Message{
		Type: MsgWeights, Worker: 3, Total: 4, Version: 42,
		Codec:  compress.FP16,
		Packed: compress.Pack(goldenFP16Tensors(), compress.Config{Codec: compress.FP16, Pull: true}),
	}
	full, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendRefFrame(nil, &m, 5, len(full)-headerSize, []int{0x3000, 12, 0x300c, 14})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != goldenPackedRefFrame {
		t.Errorf("packed reference frame:\n got %s\nwant %s", got, goldenPackedRefFrame)
	}
}

const goldenPackedRefFrame = "4453535005060000540000000103000000032a0000000000000007040000000904667031361a0500580000000200000001020200000003000000000000000c0000000030000000000000010107000000000000000e0000000c30000000000000"

var goldenFP16Frames = map[string]string{
	"push 1":  "445353500503000058000000010300000002070000000329000000000000000904667031360e0200000001020200000003000000000000000c000000003c00b800020200fffb662e010107000000000000000e00000000800000a880d063020000003400",
	"push 2":  "445353500503000058000000010300000002070000000329000000000000000904667031360e0200000001020200000003000000000000000c000000003c00b800020100fffb672e010107000000000000000e00000000000100a880d063010000003400",
	"weights": "4453535005060000580000000103000000032a0000000000000007040000000904667031360e0200000001020200000003000000000000000c000000003c00b800020200fffb662e010107000000000000000e00000000800000a880d063020000003400",
}
