package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// heapArena is an arena of pages pages in ordinary memory, for the parts of
// the lane that do not care where the bytes live.
func heapArena(pages int) *arena {
	mem := make([]byte, pages*lanePage)
	write := func(off int, vec [][]byte) error {
		for _, b := range vec {
			off += copy(mem[off:], b)
		}
		return nil
	}
	return newArena(mem, pages, write, nil)
}

// TestArenaAllocatesLowestFirst pins the allocator's two promises: a frame
// goes into the lowest run of free pages that holds it, so the touched pages
// stay at the frames in flight, and a full arena answers "no slot" instead of
// waiting.
func TestArenaAllocatesLowestFirst(t *testing.T) {
	a := heapArena(16) // one page of state words, fifteen of data
	if got := a.dataStart(); got != 1 {
		t.Fatalf("dataStart is %d, want 1", got)
	}
	alloc := a.alloc
	p1, p2, p3 := alloc(3*lanePage), alloc(lanePage+1), alloc(4*lanePage)
	if p1 != 1 || p2 != 4 || p3 != 6 {
		t.Fatalf("three allocations landed at pages %d, %d, %d, want 1, 4, 6", p1, p2, p3)
	}
	if alloc(7*lanePage) != 0 {
		t.Fatal("an allocation larger than what is left found a slot")
	}
	a.state(p2).Store(0) // the receiver releases the middle slot
	if got := alloc(3 * lanePage); got != 10 {
		t.Fatalf("a 3-page frame landed at page %d, want 10: the 2-page hole is too small", got)
	}
	if got := alloc(2 * lanePage); got != p2 {
		t.Fatalf("a 2-page frame landed at page %d, want the released hole at %d", got, p2)
	}
	a.state(p1).Store(0)
	if got := alloc(lanePage); got != p1 {
		t.Fatalf("a 1-page frame landed at page %d, want the lowest free page %d", got, p1)
	}
	// abandon gives back what was allocated after the mark, and only that.
	mark := a.seq
	p := alloc(lanePage)
	a.abandon(mark)
	if a.state(p).Load() != 0 || a.state(p1).Load() != 1 {
		t.Fatal("abandon did not free exactly the slots allocated after the mark")
	}
}

// laneFrame builds what crosses the socket for a lane frame: the header of
// m's frame with page in its reserved bytes, and the body it announces.
func laneFrame(t testing.TB, m Message, page int) (hdr, body []byte) {
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	hdr = append([]byte(nil), frame[:headerSize]...)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(page))
	return hdr, frame[headerSize:]
}

// FuzzLaneSlot drives the receive side of the lane with forged slot markers
// and body lengths over an arena holding one honest frame. Whatever the
// header says, readFrame returns a message or an error — never a panic — and
// every byte a decoded message aliases lies inside the arena's data pages.
func FuzzLaneSlot(f *testing.F) {
	const pages, page = 32, 4
	m := Message{Type: MsgPush, Worker: 1, Tensors: ToWireOwned([]*tensor.Tensor{tensor.Full(2, 5000)})}
	hdr, body := laneFrame(f, m, page)
	f.Add(uint16(page), uint32(len(body)), true) // the honest frame
	f.Add(uint16(page), uint32(len(body)-1), true)
	f.Add(uint16(0), uint32(len(body)), true)        // slot 0 is "inline": the body is not on the stream
	f.Add(uint16(page), uint32(len(body)), false)    // a slot nobody announced
	f.Add(uint16(pages-1), uint32(lanePage+1), true) // runs off the end
	f.Add(uint16(pages), uint32(1), true)
	f.Add(uint16(65535), uint32(maxFrameBody), true)
	f.Fuzz(func(t *testing.T, slot uint16, length uint32, inFlight bool) {
		a := heapArena(pages)
		copy(a.mem[page*lanePage:], body)
		if inFlight && int(slot) < pages {
			a.state(int(slot)).Store(1)
		}
		forged := append([]byte(nil), hdr...)
		binary.LittleEndian.PutUint16(forged[6:], slot)
		binary.LittleEndian.PutUint32(forged[8:], length)
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(forged)))
		fr.arena = a
		got, err := fr.readFrame()
		if err != nil {
			return
		}
		base := uintptr(unsafe.Pointer(&a.mem[0]))
		lo, hi := base+uintptr(a.dataStart()*lanePage), base+uintptr(len(a.mem))
		for i, w := range got.Tensors {
			if len(w.Data) == 0 {
				continue
			}
			// A slab the decoder had to copy out (misaligned) is its own
			// allocation; one that aliases the arena must stay in its data.
			start := uintptr(unsafe.Pointer(&w.Data[0]))
			if start >= base && start < hi && (start < lo || start+uintptr(4*len(w.Data)) > hi) {
				t.Fatalf("tensor %d of a frame at slot %d, length %d lies outside the arena's data pages", i, slot, length)
			}
		}
		got.Release()
		if slot != 0 && a.state(int(slot)).Load() != 0 {
			t.Fatalf("releasing the message did not free slot %d", slot)
		}
	})
}

// TestLanePushSlotStaysOutOfTheAllocator: the push slot is the run of pages
// ending the arena, the allocator never hands them out again, and a frame in
// flight up there keeps a slot from being placed over it.
func TestLanePushSlotStaysOutOfTheAllocator(t *testing.T) {
	a := heapArena(16) // one page of state words, fifteen of data
	a.mapPages = func(page, n int) ([]byte, func(), error) {
		return a.mem[page*lanePage : (page+n)*lanePage], func() {}, nil
	}
	big := a.alloc(14 * lanePage)
	if a.place(2*lanePage+1) || a.push != nil {
		t.Fatal("a slot was placed over a frame in flight")
	}
	a.state(big).Store(0)
	if !a.place(2*lanePage+1) || a.push.page != 13 || a.limit != 13 {
		t.Fatalf("the slot is not the arena's top three pages (%+v, limit %d)", a.push, a.limit)
	}
	if a.place(lanePage) {
		t.Fatal("a second slot was placed")
	}
	if got := a.alloc(12 * lanePage); got != 1 {
		t.Fatalf("a 12-page frame landed at page %d, want 1", got)
	}
	if got := a.alloc(lanePage); got != 0 {
		t.Fatalf("a frame landed at page %d, inside the push slot", got)
	}
}

// refFrame builds a Weights frame whose one tensor of n values is a
// reference: slot and offset as given, nothing checked. packed makes it a
// packed reference instead, to an fp16 payload of n bytes.
func refFrame(slot uint16, n uint32, off uint64, packed bool) []byte {
	body := []byte{tagTensorRefs}
	if packed {
		body[0] = tagPackedRefs
	}
	body = binary.LittleEndian.AppendUint16(body, slot)
	body = binary.LittleEndian.AppendUint32(body, 4*n+64)
	body = binary.LittleEndian.AppendUint32(body, 1)
	if packed {
		body = append(body, compress.SchemeF16, 1)
		body = binary.LittleEndian.AppendUint32(body, max(n/2, 1))
		body = binary.LittleEndian.AppendUint32(body, 0)
	} else {
		body = append(body, 1)
		body = binary.LittleEndian.AppendUint32(body, n)
	}
	body = binary.LittleEndian.AppendUint32(body, n)
	body = binary.LittleEndian.AppendUint64(body, off)
	frame := append([]byte(wireMagic), wireVersion, byte(MsgWeights), 0, 0)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(body)))
	return append(frame, body...)
}

// FuzzLaneReference drives the receive side of a reference frame, dense or
// packed, with forged slots, offsets and lengths, on a lane connection whose
// peer offered a region (carrier 0), one whose peer offered none (1) and TCP
// (2). Whatever the frame says, readFrame returns a message whose tensors or
// payloads lie inside the region — and whose Release frees its slot — or an
// error, never a panic: a reference outside the region, into the arena's
// state table, on a slot not in flight, without a region or on TCP is a
// decode error.
func FuzzLaneReference(f *testing.F) {
	const pages, regionPages, slot = 16, 8, 4
	for _, packed := range []bool{false, true} {
		f.Add(uint16(slot), uint32(1024), uint64(lanePage), true, uint8(0), packed)            // the honest frame
		f.Add(uint16(slot), uint32(1), uint64(regionPages*lanePage), true, uint8(0), packed)   // offset past the region
		f.Add(uint16(slot), uint32(2), uint64(regionPages*lanePage-4), true, uint8(0), packed) // runs off its end
		f.Add(uint16(slot), uint32(1<<30), uint64(0), true, uint8(0), packed)                  // a length no region holds
		f.Add(uint16(slot), uint32(1), uint64(1<<63), true, uint8(0), packed)                  // an offset that overflows
		f.Add(uint16(slot), uint32(1), uint64(2), true, uint8(0), packed)                      // misaligned
		f.Add(uint16(0), uint32(1024), uint64(lanePage), true, uint8(0), packed)               // a slot in the state table
		f.Add(uint16(slot), uint32(1024), uint64(lanePage), false, uint8(0), packed)           // a slot nobody announced
		f.Add(uint16(pages), uint32(1024), uint64(lanePage), true, uint8(0), packed)           // a slot past the arena
		f.Add(uint16(slot), uint32(1024), uint64(lanePage), true, uint8(1), packed)            // the peer offered no region
		f.Add(uint16(slot), uint32(1024), uint64(lanePage), true, uint8(2), packed)            // a reference on TCP
	}
	f.Fuzz(func(t *testing.T, slot uint16, n uint32, off uint64, inFlight bool, carrier uint8, packed bool) {
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(refFrame(slot, n, off, packed))))
		reg := &region{mem: make([]byte, regionPages*lanePage)}
		switch carrier % 3 {
		case 0:
			fr.arena, fr.region = heapArena(pages), reg
		case 1:
			fr.arena = heapArena(pages)
		}
		if fr.arena != nil && inFlight && int(slot) < pages {
			fr.arena.state(int(slot)).Store(1)
		}
		got, err := fr.readFrame()
		if err != nil {
			if slot == 4 && n == 1024 && off == lanePage && inFlight && carrier%3 == 0 {
				t.Fatalf("the honest reference did not decode: %v", err)
			}
			return
		}
		if carrier%3 != 0 {
			t.Fatalf("a reference frame decoded on carrier %d, which has no region", carrier%3)
		}
		base := uintptr(unsafe.Pointer(&reg.mem[0]))
		inside := func(p unsafe.Pointer, size int) bool {
			start := uintptr(p)
			return start >= base && start+uintptr(size) <= base+uintptr(len(reg.mem))
		}
		for i, w := range got.Tensors {
			if !inside(unsafe.Pointer(&w.Data[0]), 4*len(w.Data)) {
				t.Fatalf("tensor %d of a reference at offset %d, %d values, lies outside the region", i, off, n)
			}
		}
		for i, p := range got.Packed {
			if !inside(unsafe.Pointer(&p.Payload[0]), len(p.Payload)) {
				t.Fatalf("payload %d of a packed reference at offset %d, %d bytes, lies outside the region", i, off, n)
			}
		}
		if len(got.Tensors)+len(got.Packed) != 1 {
			t.Fatalf("a one-tensor reference decoded to %d tensors and %d payloads", len(got.Tensors), len(got.Packed))
		}
		if int(slot) < fr.arena.dataStart() {
			t.Fatalf("a reference named slot %d, in the arena's state table", slot)
		}
		got.Release()
		if fr.arena.state(int(slot)).Load() != 0 {
			t.Fatalf("releasing the reference did not free slot %d", slot)
		}
	})
}
