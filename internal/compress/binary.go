package compress

// The stable binary layout of a Packed tensor, spoken inside the transport
// layer's binary wire frames (docs/PROTOCOL.md §4.2) and owned here so the
// codec subsystem controls its own serialization instead of leaning on gob's
// reflective struct encoding. All integers are little endian:
//
//	uint8   scheme (SchemeF16, SchemeQ8, SchemeTopK)
//	uint8   rank d
//	uint32  × d dimensions (each ≥ 1)
//	float32 scale (IEEE 754 bits; zero for schemes without one)
//	uint32  payload length P
//	P bytes scheme-specific payload (already little endian by construction)

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PackedBinaryMinSize is the smallest legal encoding (rank 0, empty
// payload): scheme + rank + scale + payload length. Decoders use it to bound
// count-driven allocation.
const PackedBinaryMinSize = 1 + 1 + 4 + 4

// maxPackedDims mirrors the transport layer's tensor rank limit.
const maxPackedDims = 8

// AppendBinaryHeader appends everything of p's encoding that precedes the
// payload bytes — through the payload length — so a writer that can gather
// (the transport's vectored send) may put Payload on the wire from where it
// lives instead of copying it behind the header.
func (p Packed) AppendBinaryHeader(dst []byte) ([]byte, error) {
	if len(p.Shape) > maxPackedDims {
		return dst, fmt.Errorf("compress: packed tensor has rank %d, wire limit is %d", len(p.Shape), maxPackedDims)
	}
	for _, d := range p.Shape {
		if d <= 0 || d > math.MaxUint32 {
			return dst, fmt.Errorf("compress: packed tensor has unencodable dimension %d", d)
		}
	}
	dst = append(dst, p.Scheme, byte(len(p.Shape)))
	for _, d := range p.Shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p.Scale))
	return binary.LittleEndian.AppendUint32(dst, uint32(len(p.Payload))), nil
}

// DecodeBinary decodes one Packed tensor from the front of b, returning it
// and the number of bytes consumed. The returned Payload aliases b — callers
// that outlive b must copy it (DecompressReuse copies by construction, so the
// usual decode-then-decompress flow never needs to).
//
// DecodeBinary validates structure (rank, dimension positivity, payload
// presence) but not scheme semantics; DecompressReuse rejects payloads whose
// length disagrees with their shape.
func DecodeBinary(b []byte) (Packed, int, error) {
	p, off, n, err := DecodeBinaryHeader(b)
	if err != nil {
		return Packed{}, 0, err
	}
	// Compare against the remaining bytes rather than computing off+n, which
	// could overflow int on 32-bit platforms.
	if n > len(b)-off {
		return Packed{}, 0, fmt.Errorf("compress: packed payload of %d bytes exceeds the %d remaining", n, len(b)-off)
	}
	p.Payload = b[off : off+n : off+n]
	return p, off + n, nil
}

// DecodeBinaryHeader decodes what AppendBinaryHeader wrote at the front of b:
// p without its Payload, the header's length, and the payload length it
// declares (non-negative), validated as DecodeBinary validates them.
func DecodeBinaryHeader(b []byte) (p Packed, size, payload int, err error) {
	if len(b) < 2 {
		return Packed{}, 0, 0, fmt.Errorf("compress: packed header truncated (%d bytes)", len(b))
	}
	p = Packed{Scheme: b[0]}
	ndims := int(b[1])
	if ndims > maxPackedDims {
		return Packed{}, 0, 0, fmt.Errorf("compress: packed tensor has rank %d, wire limit is %d", ndims, maxPackedDims)
	}
	off := 2
	if len(b) < off+4*ndims+8 {
		return Packed{}, 0, 0, fmt.Errorf("compress: packed tensor truncated after rank byte")
	}
	if ndims > 0 {
		p.Shape = make([]int, ndims)
		n := 1
		for i := range p.Shape {
			// Bound each dimension as uint32 before converting: on a 32-bit
			// platform a huge dim would wrap int negative.
			d := binary.LittleEndian.Uint32(b[off:])
			if d == 0 || d > MaxPackedElements {
				return Packed{}, 0, 0, fmt.Errorf("compress: packed dimension %d outside [1, %d]", d, MaxPackedElements)
			}
			if n > MaxPackedElements/int(d) {
				return Packed{}, 0, 0, fmt.Errorf("compress: packed shape exceeds %d elements", MaxPackedElements)
			}
			n *= int(d)
			p.Shape[i] = int(d)
			off += 4
		}
	}
	p.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	n := binary.LittleEndian.Uint32(b[off:])
	if uint64(n) > math.MaxInt32 {
		return Packed{}, 0, 0, fmt.Errorf("compress: packed payload of %d bytes is not encodable", n)
	}
	return p, off + 4, int(n), nil
}
