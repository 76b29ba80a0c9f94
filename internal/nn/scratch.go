package nn

import "dssp/internal/tensor"

// Layers own the buffers their training passes write: each is sized on first
// use and reused for as long as the shape repeats, so a steady-state
// iteration allocates nothing in the layers and the memory a layer retains
// between iterations is bounded and constant. A reused buffer holds the
// previous iteration's values: whoever takes one overwrites all of it (or
// zeroes it first). Evaluation passes allocate their outputs as before, so
// they neither disturb a training pass in flight nor resize its buffers.

// scratch returns *slot if it already has the given shape and otherwise
// replaces it with a zeroed tensor of that shape.
func scratch(slot **tensor.Tensor, dims ...int) *tensor.Tensor {
	if t := *slot; t != nil && t.ShapeEquals(dims) {
		return t
	}
	// The copy keeps dims on the caller's stack: New's own argument escapes.
	*slot = tensor.New(append([]int(nil), dims...)...)
	return *slot
}

// scratchLike is scratch with the shape of like.
func scratchLike(slot **tensor.Tensor, like *tensor.Tensor) *tensor.Tensor {
	if t := *slot; t != nil && t.SameShape(like) {
		return t
	}
	*slot = tensor.New(like.Shape()...)
	return *slot
}

// output returns the tensor a Forward pass writes: the layer-owned buffer in
// slot when training, a fresh one when evaluating.
func output(train bool, slot **tensor.Tensor, dims ...int) *tensor.Tensor {
	if !train {
		var fresh *tensor.Tensor
		slot = &fresh
	}
	return scratch(slot, dims...)
}

// view2D returns *slot re-pointed at data as a (rows, cols) matrix. The
// header is allocated once per shape; data is aliased, not copied.
func view2D(slot **tensor.Tensor, data []float32, rows, cols int) *tensor.Tensor {
	if t := *slot; t != nil && t.Dim(0) == rows && t.Dim(1) == cols {
		return t.Rebind(data)
	}
	*slot = tensor.FromSliceOwned(data, rows, cols)
	return *slot
}

// resized returns s resliced to n elements, reallocating only to grow. The
// contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
