package compress

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dssp/internal/tensor"
)

// packedSamples builds one Packed payload per scheme from a deterministic
// tensor set.
func packedSamples(t *testing.T) []Packed {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	ts := []*tensor.Tensor{
		tensor.New(8, 4).RandNormal(rng, 0, 0.2),
		tensor.New(16).RandNormal(rng, 0, 0.2),
	}
	var out []Packed
	for _, cfg := range []Config{
		{Codec: FP16},
		{Codec: Int8},
		{Codec: TopK, TopK: 0.25},
	} {
		comp, err := NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, comp.Compress(ts)...)
	}
	return out
}

// appendBinary appends p's whole encoding, header then payload, as the
// transport writes it.
func appendBinary(p Packed, dst []byte) ([]byte, error) {
	dst, err := p.AppendBinaryHeader(dst)
	if err != nil {
		return dst, err
	}
	return append(dst, p.Payload...), nil
}

// TestPackedBinaryRoundTrip pins the stable binary layout: every scheme's
// Packed form survives AppendBinaryHeader + payload → DecodeBinary exactly,
// the encoded size is the header's fixed bytes, four per dimension and the
// payload, and consecutive encodings decode back from one buffer.
func TestPackedBinaryRoundTrip(t *testing.T) {
	samples := packedSamples(t)
	var buf []byte
	for i, p := range samples {
		before := len(buf)
		var err error
		buf, err = appendBinary(p, buf)
		if err != nil {
			t.Fatalf("packed %d: %v", i, err)
		}
		if got, want := len(buf)-before, PackedBinaryMinSize+4*len(p.Shape)+len(p.Payload); got != want {
			t.Errorf("packed %d encoded to %d bytes, want %d", i, got, want)
		}
	}
	rest := buf
	for i, want := range samples {
		got, n, err := DecodeBinary(rest)
		if err != nil {
			t.Fatalf("packed %d: %v", i, err)
		}
		rest = rest[n:]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("packed %d changed in the round trip:\nwant %+v\ngot  %+v", i, want, got)
		}
		// The decompressed tensor must match the original's decode exactly.
		a, err := DecompressReuse(want, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := DecompressReuse(got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !a.ApproxEqual(b, 0) {
			t.Errorf("packed %d decompresses differently after the round trip", i)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes after decoding all samples", len(rest))
	}
}

// TestPackedBinaryPayloadAliases pins the zero-copy contract: the decoded
// payload aliases the input buffer, and Decompress still copies out of it.
func TestPackedBinaryPayloadAliases(t *testing.T) {
	p := packedSamples(t)[0]
	buf, err := appendBinary(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) > 0 && &got.Payload[0] != &buf[1+1+4*len(p.Shape)+4+4] {
		t.Error("decoded payload does not alias the input buffer")
	}
	dec, err := DecompressReuse(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xaa // scribble over the wire buffer
	}
	dec2, err := DecompressReuse(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.ApproxEqual(dec2, 0) {
		t.Error("Decompress result aliases the wire buffer instead of copying")
	}
}

// TestPackedBinaryRejectsCorruption drives DecodeBinary with truncations and
// forged fields: errors, never panics or count-driven allocations.
func TestPackedBinaryRejectsCorruption(t *testing.T) {
	p := packedSamples(t)[0]
	buf, err := appendBinary(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeBinary(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	rank := append([]byte(nil), buf...)
	rank[1] = 200 // rank above the wire limit
	if _, _, err := DecodeBinary(rank); err == nil {
		t.Error("oversized rank accepted")
	}
	zero := append([]byte(nil), buf...)
	zero[2], zero[3], zero[4], zero[5] = 0, 0, 0, 0 // first dimension = 0
	if _, _, err := DecodeBinary(zero); err == nil {
		t.Error("zero dimension accepted")
	}
	long := append([]byte(nil), buf...)
	off := 1 + 1 + 4*len(p.Shape) + 4
	long[off], long[off+1], long[off+2], long[off+3] = 0xff, 0xff, 0xff, 0x7f // payload length beyond the buffer
	if _, _, err := DecodeBinary(long); err == nil {
		t.Error("forged payload length accepted")
	}
}

// TestDecompressRejectsHostileShapes drives Decompress/DecompressReuse with
// shapes a hostile peer could put on the wire: overflowing products and
// huge declared tensors must error before any allocation happens — not
// panic in make([]float32, n) or swallow gigabytes. (Regression: the reuse
// refactor briefly allocated from the shape before validating the payload.)
func TestDecompressRejectsHostileShapes(t *testing.T) {
	hostile := []Packed{
		{Scheme: SchemeF16, Shape: []int{1<<31 - 1, 1<<31 - 1}, Payload: nil},  // product wraps negative
		{Scheme: SchemeQ8, Shape: []int{4294967295, 4294967295}, Payload: nil}, // uint32-max dims
		{Scheme: SchemeTopK, Shape: []int{1 << 30}, Payload: nil},              // 4 GiB declared, empty payload
		{Scheme: SchemeF16, Shape: []int{MaxPackedElements + 1}, Payload: nil}, // just over the cap
		{Scheme: SchemeTopK, Shape: []int{4}, Payload: make([]byte, 8*5)},      // more entries than elements
		{Scheme: 99, Shape: []int{2}, Payload: make([]byte, 4)},                // unknown scheme
	}
	for i, p := range hostile {
		if _, err := DecompressReuse(p, nil); err == nil {
			t.Errorf("hostile packed %d decompressed successfully", i)
		}
		if _, err := DecompressReuse(p, tensor.New(2)); err == nil {
			t.Errorf("hostile packed %d decompressed into scratch successfully", i)
		}
	}
	// The wire-level decoder rejects oversized products before Decompress
	// ever sees them.
	big, err := appendBinary(Packed{Scheme: SchemeF16, Shape: []int{1 << 13, 1 << 14}, Payload: nil}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBinary(big); err == nil {
		t.Error("DecodeBinary accepted a shape above MaxPackedElements")
	}
}

// TestPackedBinaryScaleBits requires bit-exact scale transport, -0 and NaN
// included (a NaN scale means the gradients diverged; it must arrive as-is,
// not be laundered into something finite).
func TestPackedBinaryScaleBits(t *testing.T) {
	for _, bits := range []uint32{0x80000000, 0x7fc00001, 0x00000001} {
		p := Packed{Scheme: SchemeQ8, Shape: []int{1}, Scale: math.Float32frombits(bits), Payload: []byte{5}}
		buf, err := appendBinary(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeBinary(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if math.Float32bits(got.Scale) != bits {
			t.Errorf("scale bits 0x%08x arrived as 0x%08x", bits, math.Float32bits(got.Scale))
		}
	}
}

// TestDecompressAllReuseMatchesDecompressAll pins the scratch path against
// the allocating one, including shape-mismatch fallback and the topk zero
// fill on a dirty reused tensor.
func TestDecompressAllReuseMatchesDecompressAll(t *testing.T) {
	samples := packedSamples(t)
	want, err := DecompressAllReuse(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A dirty scratch of the right shapes plus one wrong-shape entry.
	scratch := make([]*tensor.Tensor, len(samples))
	for i, p := range samples {
		scratch[i] = tensor.Full(42, p.Shape...)
	}
	scratch[0] = tensor.New(3)
	got, err := DecompressAllReuse(samples, scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !want[i].ApproxEqual(got[i], 0) {
			t.Errorf("tensor %d differs between DecompressAll and DecompressAllReuse", i)
		}
	}
	if got[1] != scratch[1] {
		t.Error("matching-shape scratch tensor was not reused")
	}
	// Second pass must reuse every tensor from the first.
	again, err := DecompressAllReuse(samples, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if again[i] != got[i] {
			t.Errorf("tensor %d reallocated on the second reuse pass", i)
		}
	}
}
