package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dssp/internal/compress"
)

// FuzzDecodeFrame drives the binary frame decoder with arbitrary bytes. The
// contract under attack: any input either decodes into a message or returns
// an error — never a panic — and the decoder's allocation stays bounded by
// the input actually present, not by a forged length or count field (the
// seeds below include a frame that declares a quarter-gigabyte body backed by
// a handful of bytes; the chunked body reader and the
// count-versus-remaining-bytes guards keep that cheap). The bound for a body
// read into a fresh buffer is two read chunks (2 MiB) or twice the bytes that
// arrived plus one chunk, whichever is larger: bodies of up to two chunks are
// allocated whole (TestReadBodyAllocationBounds pins both halves). A fuzz
// input is one frame through a fresh reader, so the leased-buffer path — which
// reads into a recycled buffer some earlier, real frame sized — never runs
// here.
//
// Successfully decoded messages must additionally be canonical: re-encoding
// a decode and decoding it again reproduces the same bytes, pinning
// encoder/decoder agreement across the whole reachable message space.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed seeds covering every section type.
	seedMsgs := []Message{
		{Type: MsgHeartbeat, Worker: 3},
		{Type: MsgRegister, Worker: 1, Codec: compress.TopK, CodecTopK: 0.1, CodecPull: true},
		{Type: MsgRegistered, Worker: 1, Version: 99, Codec: compress.Int8, StoreShards: 4},
		{Type: MsgRegistered, Worker: 1, Version: 99, StoreShards: 4, Lease: 200 * time.Millisecond},
		{Type: MsgPush, Worker: 2, Iteration: 7, Version: 41, Tensors: ToWireOwned(smallMLPGrads(1))},
		{Type: MsgWeights, Worker: 0, Version: 12, Total: 4,
			Tensors: ToWireOwned(smallMLPGrads(2)[2:])},
		{Type: MsgError, Error: "boom"},
	}
	comp, err := compress.NewCompressor(compress.Config{Codec: compress.TopK, TopK: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	seedMsgs = append(seedMsgs, Message{Type: MsgPush, Codec: compress.TopK, Packed: comp.Compress(smallMLPGrads(3))})
	for i := range seedMsgs {
		frame, err := appendFrame(nil, &seedMsgs[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1]) // truncated payload
		f.Add(frame[:headerSize])   // header only
	}
	// Version-3 server-group seeds: a full cluster map, a data-server
	// announce, a backup promotion, and a cluster-mode registration.
	v3Msgs := []Message{
		{Type: MsgClusterMap, Version: 17, MapVersion: 3, StoreShards: 4, Total: 6, Servers: []ServerEntry{
			{Addr: "10.0.0.1:7070", ShardLo: 0, ShardHi: 2, TensorLo: 0, TensorHi: 3},
			{Addr: "10.0.0.2:7070", ShardLo: 2, ShardHi: 4, TensorLo: 3, TensorHi: 6},
		}},
		{Type: MsgClusterMap}, // the request form carries no fields
		{Type: MsgServerAnnounce, Servers: []ServerEntry{{Addr: "10.0.0.3:7070", ShardHi: 2, TensorHi: 3}}, Replica: true},
		{Type: MsgPromote, Servers: []ServerEntry{{Addr: "10.0.0.3:7070", ShardHi: 2, TensorHi: 3}}},
		{Type: MsgRegister, Worker: 2, Cluster: true},
		{Type: MsgRegister, Replica: true},
	}
	for i := range v3Msgs {
		frame, err := appendFrame(nil, &v3Msgs[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		// The same body downgraded to a version-2 header: the decoder must
		// reject v3 tags in older frames, not mis-parse them.
		if len(frame) > headerSize {
			down := append([]byte(nil), frame...)
			down[4] = 2
			f.Add(down)
		}
	}
	// The gated pull's empty reply must round-trip; each tag the retired
	// per-shard delta pull and the retired chunked pull reply used must fail
	// as an unknown tag, by name, in a frame of any version.
	unchanged := Message{Type: MsgWeights, Worker: -1, Version: 7, Unchanged: true}
	frame, err := appendFrame(nil, &unchanged)
	if err != nil {
		f.Fatal(err)
	}
	if m, err := newFrameReader(bufio.NewReader(bytes.NewReader(frame))).readFrame(); err != nil || !reflect.DeepEqual(m, unchanged) {
		f.Fatalf("Unchanged reply decoded to %+v, %v", m, err)
	}
	f.Add(frame)
	for _, tag := range []byte{0x04, 0x05, 0x06, 0x0F, 0x10, 0x12} {
		retired := []byte(wireMagic)
		retired = append(retired, wireVersion, byte(MsgPull), 0, 0)
		retired = binary.LittleEndian.AppendUint32(retired, 9)
		retired = append(retired, tag, 1, 0, 0, 0, 0, 0, 0, 0)
		_, err := newFrameReader(bufio.NewReader(bytes.NewReader(retired))).readFrame()
		if want := fmt.Sprintf("unknown field tag 0x%02x", tag); err == nil || !strings.Contains(err.Error(), want) {
			f.Fatalf("retired tag 0x%02x decoded to error %v, want %q", tag, err, want)
		}
		f.Add(retired)
	}
	// The reference frames stand for a Weights reply only on a lane whose
	// peer offered a region: here, with none, both are decode errors.
	for _, m := range []Message{
		{Type: MsgWeights, Version: 3, Total: 4, Tensors: ToWireOwned(smallMLPGrads(4)[:1])},
		{Type: MsgWeights, Version: 3, Total: 4, Codec: compress.FP16,
			Packed: compress.Pack(smallMLPGrads(4)[:1], compress.Config{Codec: compress.FP16})},
	} {
		full, err := appendFrame(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		ref, err := appendRefFrame(nil, &m, 4, len(full)-headerSize, []int{lanePage, len(full)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ref)
	}
	// Hostile headers: giant declared length, bad magic, future version.
	big := []byte(wireMagic)
	big = append(big, wireVersion, byte(MsgPush), 0, 0)
	big = binary.LittleEndian.AppendUint32(big, maxFrameBody)
	f.Add(append(big, 1, 2, 3))
	f.Add([]byte("GOBSTREAM-NOT-DSSP"))
	f.Add([]byte{'D', 'S', 'S', 'P', 99, 1, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(data)))
		m, err := fr.readFrame()
		if err != nil {
			return
		}
		frame1, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%+v)", err, m)
		}
		fr2 := newFrameReader(bufio.NewReader(bytes.NewReader(frame1)))
		m2, err := fr2.readFrame()
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		frame2, err := appendFrame(nil, &m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(frame1, frame2) {
			t.Fatalf("decode/encode is not canonical:\nfirst  % x\nsecond % x", frame1, frame2)
		}
	})
}
