package compress

import "dssp/internal/tensor"

// The value codecs' tensor-level glue over the slice kernels in kernels.go.
// Every pack function writes into the Packed it is handed, reusing its
// payload buffer and shape when they fit, so callers that keep their Packed
// values between calls (Compressor, PackInto) allocate nothing in the steady
// state.

// sizePacked prepares p to carry an n-byte payload of t under scheme,
// recycling p's payload buffer and shape slice when they fit.
func sizePacked(p *Packed, scheme uint8, t *tensor.Tensor, n int) {
	p.Scheme, p.Scale = scheme, 0
	if !t.ShapeEquals(p.Shape) {
		p.Shape = t.Shape()
	}
	if cap(p.Payload) < n {
		p.Payload = make([]byte, n)
	}
	p.Payload = p.Payload[:n]
}

// packF16 encodes t as IEEE 754 half-precision values, 2 bytes each; t is
// read-only.
func packF16(p *Packed, t *tensor.Tensor) {
	sizePacked(p, SchemeF16, t, 2*t.Size())
	encodeF16(p.Payload, t.Data())
}

// packF16Feedback folds g into the error-feedback buffer r, encodes the sum,
// and leaves the rounding error of every value in r.
func packF16Feedback(p *Packed, r, g *tensor.Tensor) {
	sizePacked(p, SchemeF16, r, 2*r.Size())
	encodeF16Feedback(p.Payload, r.Data(), g.Data())
}

// packF16Product is packF16Feedback of the product f.Aᵀ×f.B, never stored
// (tensor.MatMulTransAF16Feedback), reporting false where that pass does not
// take f; r is then untouched.
func packF16Product(p *Packed, r *tensor.Tensor, f tensor.Factors) bool {
	sizePacked(p, SchemeF16, r, 2*r.Size())
	return tensor.MatMulTransAF16Feedback(p.Payload, r, f.A, f.B)
}

// packQ8 encodes t with uniform 8-bit quantization: scale = maxAbs/127,
// q = round-to-even(v/scale) in [-127, 127], 1 byte per value; t is
// read-only.
func packQ8(p *Packed, t *tensor.Tensor) {
	sizePacked(p, SchemeQ8, t, t.Size())
	if p.Scale = maxAbs(t.Data()) / 127; p.Scale == 0 {
		// All-zero tensor (or maxAbs underflowed): send zeros verbatim.
		clear(p.Payload)
		return
	}
	encodeQ8(p.Payload, t.Data(), p.Scale)
}

// packQ8Feedback folds g into the error-feedback buffer r, quantizes the sum
// like packQ8, and leaves the quantization error of every value in r.
func packQ8Feedback(p *Packed, r, g *tensor.Tensor) {
	sizePacked(p, SchemeQ8, r, r.Size())
	if p.Scale = addMaxAbs(r.Data(), g.Data()) / 127; p.Scale == 0 {
		clear(p.Payload)
		r.Zero()
		return
	}
	encodeQ8Feedback(p.Payload, r.Data(), p.Scale)
}
