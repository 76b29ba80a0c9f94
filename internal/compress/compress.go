// Package compress implements the pluggable gradient codecs spoken on the
// parameter-server wire path. A codec turns the dense float32 tensors of a
// push (and optionally the weights of a pull reply) into a compact binary
// Packed form and back:
//
//   - "none"  — identity; tensors travel uncompressed (the default).
//   - "fp16"  — IEEE 754 half precision, 2 bytes per value.
//   - "int8"  — uniform 8-bit quantization with a per-tensor scale,
//     1 byte per value.
//   - "topk"  — magnitude sparsification: only the k largest-magnitude
//     entries per tensor are sent (8 bytes each), k = ceil(TopK·n).
//
// The lossy codecs are made safe for training by error feedback (Seide et
// al., 2014; Stich et al., 2018): the worker-side Compressor keeps a
// per-tensor residual of everything compression discarded and folds it into
// the next push, so every gradient coordinate eventually reaches the server
// and compressed SGD converges like its uncompressed counterpart.
//
// Packed payloads are self-describing: decompression needs no codec
// configuration, only the payload itself. Codec choice and parameters are
// negotiated once per connection at registration time (see internal/ps).
package compress

import (
	"fmt"
	"math"

	"dssp/internal/tensor"
)

// Codec names accepted by Config.Codec.
const (
	// None is the identity codec: tensors travel uncompressed.
	None = "none"
	// Auto is a client-side pseudo-codec: adopt whatever the server speaks.
	// It is never a negotiated result and never appears on the wire after
	// registration.
	Auto = "auto"
	// FP16 encodes values as IEEE 754 half-precision floats.
	FP16 = "fp16"
	// Int8 quantizes values uniformly to 8 bits with a per-tensor scale.
	Int8 = "int8"
	// TopK sends only the largest-magnitude fraction of each tensor.
	TopK = "topk"
)

// DefaultTopK is the fraction of entries the topk codec keeps when the
// configuration leaves TopK unset.
const DefaultTopK = 0.1

// Payload encoding schemes carried in Packed.Scheme.
const (
	// SchemeF16 packs 2-byte IEEE half-precision values, little endian.
	SchemeF16 uint8 = 1
	// SchemeQ8 packs 1-byte two's-complement quantized values; the
	// dequantization step is Packed.Scale.
	SchemeQ8 uint8 = 2
	// SchemeTopK packs (uint32 index, float32 value) pairs, little endian.
	SchemeTopK uint8 = 3
)

// Config selects a codec and its parameters. The zero value means "none".
// The public surface exposes it as dssp.Compression.
type Config struct {
	// Codec is one of None, FP16, Int8 or TopK ("" means None). Clients may
	// also use Auto to adopt the server's configuration at registration; on a
	// worker's or relay's public config "" means Auto instead.
	Codec string
	// TopK is the fraction of entries per tensor kept by the topk codec,
	// in (0, 1]; 0 selects DefaultTopK. Ignored by the other codecs.
	TopK float64
	// Pull additionally compresses the weights workers pull. Only the
	// value codecs (fp16, int8) support it: weights are state, not sparse
	// updates, so topk pulls would discard most of the model.
	Pull bool
}

// Normalized maps the zero value onto its explicit form: "" becomes None,
// and an unset TopK fraction becomes DefaultTopK (for the topk codec only).
func (c Config) Normalized() Config {
	if c.Codec == "" {
		c.Codec = None
	}
	if c.Codec != TopK {
		c.TopK = 0
	} else if c.TopK == 0 {
		c.TopK = DefaultTopK
	}
	return c
}

// Enabled reports whether the configuration names a lossy codec, i.e.
// whether pushes carry Packed payloads instead of plain tensors.
func (c Config) Enabled() bool {
	switch c.Codec {
	case FP16, Int8, TopK:
		return true
	}
	return false
}

// Validate checks the configuration. allowAuto admits the client-side Auto
// pseudo-codec; servers must not be configured with it.
func (c Config) Validate(allowAuto bool) error {
	switch c.Codec {
	case "", None, FP16, Int8:
	case TopK:
		if c.TopK < 0 || c.TopK > 1 {
			return fmt.Errorf("compress: topk fraction %g outside (0, 1]", c.TopK)
		}
	case Auto:
		if !allowAuto {
			return fmt.Errorf("compress: codec %q is client-side only", Auto)
		}
	default:
		return fmt.Errorf("compress: unknown codec %q (want %s, %s, %s or %s)",
			c.Codec, None, FP16, Int8, TopK)
	}
	if c.Pull {
		switch c.Codec {
		case FP16, Int8, Auto:
		default:
			return fmt.Errorf("compress: pull compression requires the fp16 or int8 codec, not %q", c.Codec)
		}
	}
	return nil
}

// Equal reports whether two configurations describe the same negotiated
// codec. Both sides are compared in normalized form.
func (c Config) Equal(o Config) bool {
	c, o = c.Normalized(), o.Normalized()
	return c == o
}

// String renders the configuration for error messages: "topk(0.10)+pull".
func (c Config) String() string {
	c = c.Normalized()
	s := c.Codec
	if c.Codec == TopK {
		s = fmt.Sprintf("%s(%.2g)", s, c.TopK)
	}
	if c.Pull {
		s += "+pull"
	}
	return s
}

// Packed is the serializable compressed form of one tensor. It is
// self-describing: Scheme and Shape fully determine how Payload decodes.
type Packed struct {
	// Scheme identifies the payload encoding (SchemeF16, SchemeQ8, SchemeTopK).
	Scheme uint8
	// Shape is the dense shape of the decoded tensor.
	Shape []int
	// Scale is the SchemeQ8 dequantization step; zero for other schemes.
	Scale float32
	// Payload is the scheme-specific little-endian binary encoding.
	Payload []byte
}

// WireSize returns the approximate number of bytes p occupies on the wire:
// the payload plus a small per-tensor header. It is used for traffic
// accounting, not framing.
func (p Packed) WireSize() int { return len(p.Payload) + 4*len(p.Shape) + 8 }

// Compressor is the stateful worker-side half of a codec: it compresses one
// gradient stream and carries the error-feedback residuals of its lossy
// codec. A Compressor therefore belongs to exactly one worker and is not
// safe for concurrent use. The gradient list must keep the same length and
// shapes from call to call (it is one model's parameter gradients).
type Compressor struct {
	cfg      Config
	residual []*tensor.Tensor
	// out and the value codecs' payload buffers are recycled by every
	// Compress, so their steady state allocates nothing; into is
	// CompressInto's, whose payloads are the caller's.
	out  []Packed
	into []Packed
}

// NewCompressor returns a compressor for the given (lossy) configuration.
func NewCompressor(cfg Config) (*Compressor, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(false); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("compress: codec %q needs no compressor", cfg.Codec)
	}
	return &Compressor{cfg: cfg}, nil
}

// Config returns the configuration the compressor encodes with.
func (c *Compressor) Config() Config { return c.cfg }

// negZero starts every residual: −0 is the additive identity of IEEE floats
// (−0 + g == g bit for bit, where +0 + −0 would lose the sign), so a fresh
// residual needs no first-push special case.
var negZero = float32(math.Copysign(0, -1))

// Compress encodes one gradient push. Error feedback: each tensor's residual
// r accumulates the incoming gradient (r += g), the codec encodes r, and
// whatever the encoding could not represent stays in r for the next push —
// one fused pass per tensor for the value codecs. The caller's tensors are
// never mutated and may be reused.
//
// The returned slice and its payloads belong to the compressor and are
// overwritten by the next Compress. A transport.Conn is done with them when
// Send returns, so they go into a message as they are; anything that keeps
// them past the next Compress copies.
func (c *Compressor) Compress(grads []*tensor.Tensor) []Packed {
	return c.CompressInto(nil, grads, nil)
}

// CompressInto is Compress encoding tensor i's payload into payloads[i],
// memory the caller provides — a transport's push slot, where the payload is
// sent from without a copy (transport.BodyPlacer) — which must hold exactly
// the payload's bytes: 2 per value under fp16, 1 under int8, the two codecs
// whose payload size is known before the encode. The returned slice is
// overwritten by the next CompressInto. With payloads nil it is Compress,
// into the compressor's own buffers.
//
// factors, unless nil, is aligned with grads, and an entry that is set hands
// grads[i] on as the product of its two factors, never computed
// (nn.Network.BackwardFactors). The fp16 encode runs the product and itself
// in one pass where tensor.MatMulTransAF16Feedback takes it; otherwise the
// product is computed into grads[i] and encoded from there. Either way the
// encode is the one grads[i] holding the product would get, bit for bit.
func (c *Compressor) CompressInto(payloads [][]byte, grads []*tensor.Tensor, factors []tensor.Factors) []Packed {
	if payloads == nil {
		c.out = c.encode(c.out, grads, factors)
		return c.out
	}
	c.into = resizePacked(c.into, len(grads))
	for i, p := range payloads {
		c.into[i].Payload = p
	}
	c.into = c.encode(c.into, grads, factors)
	return c.into
}

// encode is CompressInto into out, whose Packed values and payload buffers it
// recycles.
func (c *Compressor) encode(out []Packed, grads []*tensor.Tensor, factors []tensor.Factors) []Packed {
	if len(c.residual) < len(grads) {
		grown := make([]*tensor.Tensor, len(grads))
		copy(grown, c.residual)
		c.residual = grown
	}
	out = resizePacked(out, len(grads))
	for i, g := range grads {
		r := c.residual[i]
		if r == nil || !r.SameShape(g) {
			r = tensor.Full(negZero, g.Shape()...)
			c.residual[i] = r
		}
		if factors != nil && factors[i].A != nil {
			if c.cfg.Codec == FP16 && packF16Product(&out[i], r, factors[i]) {
				continue
			}
			tensor.MatMulTransAInto(g, factors[i].A, factors[i].B)
		}
		switch c.cfg.Codec {
		case FP16:
			packF16Feedback(&out[i], r, g)
		case Int8:
			packQ8Feedback(&out[i], r, g)
		case TopK:
			out[i] = packTopK(r.Add(g), c.cfg.TopK)
		default:
			panic(fmt.Sprintf("compress: Compress with codec %q", c.cfg.Codec))
		}
	}
	return out
}

// resizePacked returns ps with length n, keeping the Packed values (and the
// buffers they hold) it already has.
func resizePacked(ps []Packed, n int) []Packed {
	if cap(ps) < n {
		grown := make([]Packed, n)
		copy(grown, ps[:cap(ps)])
		return grown
	}
	return ps[:n]
}

// Pack compresses tensors without error feedback — the stateless form used
// on the pull path, where the full weights are re-sent on every pull and a
// residual would double-count. The inputs are never mutated, so Pack is safe
// on the store's shared copy-on-write snapshots. Only the value codecs are
// supported (Config.Validate enforces this for pull compression).
func Pack(ts []*tensor.Tensor, cfg Config) []Packed {
	return PackInto(nil, ts, cfg)
}

// PackInto is Pack recycling dst's Packed values — payload buffers and
// shapes — where they fit; it returns the (possibly re-allocated) dst. The
// caller must own dst outright: nothing may still be reading its payloads.
func PackInto(dst []Packed, ts []*tensor.Tensor, cfg Config) []Packed {
	dst = resizePacked(dst, len(ts))
	for i, t := range ts {
		switch cfg.Codec {
		case FP16:
			packF16(&dst[i], t)
		case Int8:
			packQ8(&dst[i], t)
		default:
			panic(fmt.Sprintf("compress: Pack with codec %q", cfg.Codec))
		}
	}
	return dst
}

// MaxPackedElements bounds the dense element count a Packed tensor may
// declare — matching the transport layer's dense-tensor bound — so a hostile
// shape cannot drive allocation beyond what a legal frame could carry.
const MaxPackedElements = 1 << 26

// DecompressReuse reconstructs p into dst when dst has exactly p's shape,
// avoiding the allocation; otherwise (or with dst nil) a fresh tensor is
// allocated. Either way the result never aliases p.Payload. The reuse path
// serves receivers that decode the same parameter layout repeatedly — the
// server's per-session gradient scratch.
//
// The shape and payload are fully validated — overflow-safe element count,
// scheme-consistent payload length — before any allocation, because Packed
// values arrive from the network: a corrupt shape must produce an error,
// never a panic or an attacker-sized allocation.
func DecompressReuse(p Packed, dst *tensor.Tensor) (*tensor.Tensor, error) {
	n := 1
	for _, d := range p.Shape {
		if d <= 0 {
			return nil, fmt.Errorf("compress: packed tensor has non-positive dimension %d", d)
		}
		if n > MaxPackedElements/d {
			return nil, fmt.Errorf("compress: packed shape %v exceeds %d elements", p.Shape, MaxPackedElements)
		}
		n *= d
	}
	switch p.Scheme {
	case SchemeF16:
		if len(p.Payload) != 2*n {
			return nil, fmt.Errorf("compress: fp16 payload holds %d bytes for %d values", len(p.Payload), n)
		}
	case SchemeQ8:
		if len(p.Payload) != n {
			return nil, fmt.Errorf("compress: int8 payload holds %d bytes for %d values", len(p.Payload), n)
		}
	case SchemeTopK:
		if len(p.Payload)%8 != 0 {
			return nil, fmt.Errorf("compress: topk payload of %d bytes is not index/value pairs", len(p.Payload))
		}
		if len(p.Payload)/8 > n {
			return nil, fmt.Errorf("compress: topk payload holds %d entries for %d values", len(p.Payload)/8, n)
		}
	default:
		return nil, fmt.Errorf("compress: unknown payload scheme %d", p.Scheme)
	}
	if dst == nil || !dst.ShapeEquals(p.Shape) {
		dst = tensor.New(p.Shape...)
	}
	switch p.Scheme {
	case SchemeF16:
		decodeF16(dst.Data(), p.Payload)
	case SchemeQ8:
		decodeQ8(dst.Data(), p.Payload, p.Scale)
	default:
		return dst, unpackTopK(p, dst)
	}
	return dst, nil
}

// DecompressAllReuse reconstructs a full tensor list, the inverse of
// Compressor.Compress and Pack, writing into scratch where shapes match (nil
// scratch allocates every tensor); it returns the (possibly re-sliced)
// scratch. Callers own the returned tensors until their next
// DecompressAllReuse with the same scratch.
func DecompressAllReuse(ps []Packed, scratch []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if cap(scratch) < len(ps) {
		grown := make([]*tensor.Tensor, len(ps))
		copy(grown, scratch[:cap(scratch)])
		scratch = grown
	}
	scratch = scratch[:len(ps)]
	for i, p := range ps {
		t, err := DecompressReuse(p, scratch[i])
		if err != nil {
			return nil, fmt.Errorf("compress: tensor %d: %w", i, err)
		}
		scratch[i] = t
	}
	return scratch, nil
}
