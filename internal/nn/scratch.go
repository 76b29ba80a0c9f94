package nn

import "dssp/internal/tensor"

// The buffers of a training pass. Every tensor a training pass writes lives
// in a buffer that is sized on first use and reused for as long as the shape
// repeats, so a steady-state iteration allocates nothing in the layers and
// the memory a network retains between iterations is bounded and constant.
// A buffer is sized for the largest batch it has served: a smaller batch
// with the same dims after the batch dimension runs on a prefix of it, so an
// epoch's short tail batch reallocates nothing, and a buffer whose layout
// never changes keeps whatever it never writes — the zero border of Conv2D's
// bordered images (direct.go) — across batch sizes. A reused buffer holds the
// previous pass's values: whoever takes one overwrites all of it (or zeroes
// it first). Evaluation passes allocate their outputs, and a layer that
// reuses scratch inside a pass keeps its evaluation scratch apart from its
// training scratch (Conv2D's eval and train), so they neither disturb a
// training pass in flight nor resize its buffers.
//
// Ownership. A buffer that a later pass reads belongs to the layer that
// writes it: an output its consumer reads again (Dense's input, in its
// Backward; a ResidualBlock's, for the shortcut), what a layer keeps of its
// input (Conv2D's bordered images, BatchNorm's x̂, ReLU's mask of one bit per
// element) and the scratch inside one call. A buffer that no later pass
// reads comes from the network's pool, which holds two buffers per
// activation geometry (the dims after the batch dimension) and hands them
// out in turn, to the forward and the backward pass alike:
//
//	buffer                          read by                        from
//	input gradient of a Backward    the next Backward only         pool
//	output consumed by BatchNorm,   the consumer's Forward only    pool
//	  ReLU, Conv2D, GlobalAvgPool,
//	  MaxPool2D, Flatten, Dropout
//	output consumed by Dense or a   the consumer's Backward, or    layer
//	  ResidualBlock, and the logits its Forward again (shortcut)
//
// NewNetwork decides the table once from the layer kinds (planBuffers); a
// nil pool leaves every buffer with its layer, and
// TestActivationPlanBitIdentical holds the two to the same bits. Two
// buffers per geometry suffice because a pooled buffer is dead once the call
// that reads it returns, and that call takes at most one buffer of its own
// input's geometry meanwhile — the other one. ResidualBlock keeps to that
// inside too: its BatchNorms write no output of their own (bn1 writes into
// conv2's bordered images, bn2 and projBN into the block's output), and its
// Backward runs the main path over one buffer in place, so the upstream
// gradient, which it reads to the end, and that buffer are the two of the
// block's output geometry (residual.go). TestTrainingScratchBudget holds
// each model's first training iteration to the bytes this plan allocates.

// buffer is a reusable training buffer: storage sized for the largest leading
// dimension asked of it, and the tensor headers of the shapes it serves.
type buffer struct {
	data []float32
	// views are headers on prefixes of data: views[0] is the shape data was
	// allocated for, whose dims after the first fix the layout; views[1] the
	// last other leading dimension asked for.
	views [2]*tensor.Tensor
}

// get returns a tensor of the given dims on b's storage: the header of that
// shape if b has one, else a new header on a prefix of the storage when the
// dims after the first match and it is large enough, else one on new, zeroed
// storage.
func (b *buffer) get(dims ...int) *tensor.Tensor {
	for _, v := range b.views {
		if v != nil && v.ShapeEquals(dims) {
			return v
		}
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	slot := 1
	if len(b.data) < n || !sameLayout(b.views[0], dims) {
		b.data, b.views, slot = make([]float32, n), [2]*tensor.Tensor{}, 0
	}
	// The copy keeps dims on the caller's stack: FromSliceOwned's argument
	// escapes.
	b.views[slot] = tensor.FromSliceOwned(b.data[:n], append([]int(nil), dims...)...)
	return b.views[slot]
}

// sameLayout reports whether t has dims' rank and dims after the first.
func sameLayout(t *tensor.Tensor, dims []int) bool {
	if t == nil || t.Dims() != len(dims) {
		return false
	}
	for i := 1; i < len(dims); i++ {
		if t.Dim(i) != dims[i] {
			return false
		}
	}
	return true
}

// pool is a network's shared training buffers: two per geometry — the rank
// and the dims after the batch — taken in turn.
type pool struct {
	pairs []bufferPair
}

type bufferPair struct {
	bufs [2]buffer
	next int
}

// get returns the next buffer of dims' geometry as a tensor of those dims.
func (p *pool) get(dims ...int) *tensor.Tensor {
	i := 0
	for i < len(p.pairs) && !sameLayout(p.pairs[i].bufs[0].views[0], dims) {
		i++
	}
	if i == len(p.pairs) {
		p.pairs = append(p.pairs, bufferPair{})
	}
	pair := &p.pairs[i]
	b := &pair.bufs[pair.next]
	pair.next ^= 1
	return b.get(dims...)
}

// trainBufs are the two buffers of a layer a network may pool: the output of
// a training Forward and the input gradient Backward returns. A nil pool
// means the layer's own buffer.
type trainBufs struct {
	outPool, dxPool *pool
	outBuf, dxBuf   buffer
}

// usePool sets where the layer takes its output and its input gradient.
func (t *trainBufs) usePool(out, dx *pool) { t.outPool, t.dxPool = out, dx }

// pooler is a layer whose buffers a network may pool.
type pooler interface{ usePool(out, dx *pool) }

// output returns the tensor a Forward pass writes: a fresh one when
// evaluating, the training output buffer otherwise.
func (t *trainBufs) output(train bool, dims ...int) *tensor.Tensor {
	if !train {
		return tensor.New(append([]int(nil), dims...)...)
	}
	return take(t.outPool, &t.outBuf, dims)
}

// inputGrad returns the tensor a Backward pass returns.
func (t *trainBufs) inputGrad(dims ...int) *tensor.Tensor { return take(t.dxPool, &t.dxBuf, dims) }

// outputLike and inputGradLike are output and inputGrad in the shape of x.
func (t *trainBufs) outputLike(train bool, x *tensor.Tensor) *tensor.Tensor {
	var d [4]int
	return t.output(train, dimsOf(d[:0], x)...)
}

func (t *trainBufs) inputGradLike(x *tensor.Tensor) *tensor.Tensor {
	var d [4]int
	return t.inputGrad(dimsOf(d[:0], x)...)
}

func take(p *pool, own *buffer, dims []int) *tensor.Tensor {
	if p != nil {
		return p.get(dims...)
	}
	return own.get(dims...)
}

// dimsOf appends x's dims to d.
func dimsOf(d []int, x *tensor.Tensor) []int {
	for i := 0; i < x.Dims(); i++ {
		d = append(d, x.Dim(i))
	}
	return d
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
