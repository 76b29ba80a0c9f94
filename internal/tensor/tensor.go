// Package tensor provides the dense numeric arrays used by the neural-network
// substrate (internal/nn) and the parameter-server payloads (internal/ps).
// It implements exactly the operations needed to train the paper's models
// (downsized AlexNet and CIFAR-style ResNets) on a CPU: element-wise
// arithmetic, matrix multiplication, simple reductions and (de)serialization.
//
// Tensors store float32 data in row-major order. Operations panic on shape
// mismatches: shape errors are programming bugs in model definitions, not
// runtime conditions a caller could meaningfully handle.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions is a scalar holding a single element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice returns a tensor wrapping a copy of data with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	t := New(shape...)
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: %d values cannot fill shape %v (%d elements)", len(data), shape, len(t.data)))
	}
	copy(t.data, data)
	return t
}

// FromSliceOwned returns a tensor that aliases data directly — no copy. The
// caller transfers ownership: mutating data afterwards mutates the tensor.
// Its production use is the transport layer's zero-copy decode path, where
// the slice is a view into a wire buffer owned by a single message.
func FromSliceOwned(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: %d values cannot fill shape %v (%d elements)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Rebind points t at data, keeping its shape, and returns t; data must hold
// exactly t.Size() elements and is aliased as by FromSliceOwned. A caller
// that walks a large buffer in equal pieces (a batch, one image at a time)
// re-points one header instead of allocating a view per piece.
func (t *Tensor) Rebind(data []float32) *Tensor {
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: Rebind got %d values for shape %v (%d elements)", len(data), t.shape, len(t.data)))
	}
	t.data = data
	return t
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Shape returns a copy of the tensor's dimensions.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// ShapeEquals reports whether the tensor's shape equals the given
// dimensions, without the copy Shape makes.
func (t *Tensor) ShapeEquals(dims []int) bool {
	if len(t.shape) != len(dims) {
		return false
	}
	for i, d := range t.shape {
		if d != dims[i] {
			return false
		}
	}
	return true
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating the returned slice mutates
// the tensor; callers that need isolation should Clone first.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	out := New(t.shape...)
	copy(out.data, t.data)
	return out
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// offset converts a multi-dimensional index into a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// assertSameShape panics when the two tensors differ in shape.
func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Zero sets every element to zero in place.
func (t *Tensor) Zero() { clear(t.data) }

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Add performs t += o element-wise and returns t.
func (t *Tensor) Add(o *Tensor) *Tensor {
	assertSameShape("Add", t, o)
	addSlice(t.data, o.data)
	return t
}

// Sub performs t -= o element-wise and returns t.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	assertSameShape("Sub", t, o)
	subSlice(t.data, o.data)
	return t
}

// Mul performs t *= o element-wise (Hadamard product) and returns t.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	assertSameShape("Mul", t, o)
	for i := range t.data {
		t.data[i] *= o.data[i]
	}
	return t
}

// Scale multiplies every element by s in place and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	scaleSlice(s, t.data)
	return t
}

// AXPY performs t += alpha * o element-wise and returns t.
func (t *Tensor) AXPY(alpha float32, o *Tensor) *Tensor {
	assertSameShape("AXPY", t, o)
	axpySlice(alpha, o.data, t.data)
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	var s float32
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float32 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float32(len(t.data))
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ApproxEqual reports whether t and o have the same shape and all elements
// within tol of each other.
func (t *Tensor) ApproxEqual(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(float64(t.data[i])-float64(o.data[i])) > tol {
			return false
		}
	}
	return true
}

// String returns a short description of the tensor (shape and element count),
// not its contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elements)", t.shape, len(t.data))
}
