package nn

import (
	"fmt"

	"dssp/internal/tensor"
)

// MaxPool2D is a max pooling layer over NCHW inputs with a square window and
// stride equal to the window size.
type MaxPool2D struct {
	window int

	lastShape [4]int // input shape of the last training forward pass
	argmax    []int
	trainBufs
}

// NewMaxPool2D returns a max pooling layer with the given window size.
func NewMaxPool2D(window int) *MaxPool2D {
	if window <= 0 {
		panic(fmt.Sprintf("nn: invalid pooling window %d", window))
	}
	return &MaxPool2D{window: window}
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s got input shape %v, want NCHW", p.Name(), x.Shape()))
	}
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH, outW := h/p.window, w/p.window
	out := p.output(train, batch, ch, outH, outW)
	if train {
		p.lastShape = [4]int{batch, ch, h, w}
		p.argmax = resized(p.argmax, out.Size())
	}
	xd := x.Data()
	od := out.Data()
	for b := 0; b < batch; b++ {
		for c := 0; c < ch; c++ {
			planeBase := (b*ch + c) * h * w
			outBase := (b*ch + c) * outH * outW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					bestIdx := planeBase + (oy*p.window)*w + ox*p.window
					best := xd[bestIdx]
					for dy := 0; dy < p.window; dy++ {
						for dx := 0; dx < p.window; dx++ {
							idx := planeBase + (oy*p.window+dy)*w + (ox*p.window + dx)
							if xd[idx] > best {
								best = xd[idx]
								bestIdx = idx
							}
						}
					}
					oidx := outBase + oy*outW + ox
					od[oidx] = best
					if train {
						p.argmax[oidx] = bestIdx
					}
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward called before Forward(train=true)")
	}
	dx := p.inputGrad(p.lastShape[:]...)
	dx.Zero() // only the argmax positions are written below
	dxd := dx.Data()
	gd := grad.Data()
	for i, src := range p.argmax {
		dxd[src] += gd[i]
	}
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(%d)", p.window) }

// GlobalAvgPool averages each channel over its spatial extent, producing a
// (batch, channels) tensor. It is the head used by the CIFAR ResNets.
type GlobalAvgPool struct {
	lastShape [4]int // input shape of the last training forward pass; zero before it
	trainBufs
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool got input shape %v, want NCHW", x.Shape()))
	}
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if train {
		p.lastShape = [4]int{batch, ch, h, w}
	}
	out := p.output(train, batch, ch)
	xd := x.Data()
	od := out.Data()
	area := float32(h * w)
	for b := 0; b < batch; b++ {
		for c := 0; c < ch; c++ {
			base := (b*ch + c) * h * w
			var s float32
			for i := 0; i < h*w; i++ {
				s += xd[base+i]
			}
			od[b*ch+c] = s / area
		}
	}
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastShape[0] == 0 {
		panic("nn: GlobalAvgPool.Backward called before Forward(train=true)")
	}
	batch, ch, h, w := p.lastShape[0], p.lastShape[1], p.lastShape[2], p.lastShape[3]
	dx := p.inputGrad(p.lastShape[:]...)
	dxd := dx.Data()
	gd := grad.Data()
	area := float32(h * w)
	for b := 0; b < batch; b++ {
		for c := 0; c < ch; c++ {
			g := gd[b*ch+c] / area
			base := (b*ch + c) * h * w
			for i := 0; i < h*w; i++ {
				dxd[base+i] = g
			}
		}
	}
	return dx
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return "GlobalAvgPool" }
