// Package nn is the deep-learning substrate of the DSSP reproduction: a
// small, CPU-only neural-network library with exactly the layers needed to
// express the paper's models (a downsized AlexNet with fully connected
// layers and CIFAR-style ResNets without them), mini-batch forward/backward
// passes, and utilities for exchanging parameters and gradients with the
// parameter server.
//
// Tensors flow through layers in NCHW layout for convolutional stages
// (batch, channels, height, width) and (batch, features) for dense stages.
package nn

import (
	"fmt"
	"math/rand"

	"dssp/internal/tensor"
)

// Layer is one differentiable stage of a network.
//
// A layer, and so a Network, belongs to one goroutine at a time, for
// evaluation as much as for training: layers keep per-pass state and reuse
// their own buffers (scratch.go). Whoever evaluates while others train holds a
// replica of its own, as Server.Evaluate and the trainer's evaluator do.
//
// The tensors a training pass returns — Forward with train=true, and
// Backward — are owned by the layer and valid until its next training
// Forward or Backward respectively; a caller that keeps one longer clones it.
// Inputs are only read, except that a layer may add into a gradient or
// activation it was just handed by the layer that produced it.
type Layer interface {
	// Forward computes the layer output for input x. When train is false the
	// layer must behave deterministically (e.g. dropout disabled, batch norm
	// using running statistics), returns a tensor the caller owns, and leaves
	// the state of a training pass in flight untouched.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor

	// Backward receives the gradient of the loss with respect to the layer
	// output and returns the gradient with respect to the layer input,
	// accumulating parameter gradients internally. It must be called after
	// Forward with train=true.
	Backward(grad *tensor.Tensor) *tensor.Tensor

	// Params returns the layer's trainable parameter tensors. The returned
	// tensors share storage with the layer, so mutating them updates the
	// layer.
	Params() []*tensor.Tensor

	// Grads returns the accumulated gradients, aligned with Params.
	Grads() []*tensor.Tensor

	// Name returns a short layer description used in error messages.
	Name() string
}

// Network is a sequential composition of layers with a classification loss.
type Network struct {
	layers []Layer
	loss   *SoftmaxCrossEntropy
	rng    *rand.Rand

	// Every layer's Params and Grads, gathered once: layers never replace
	// their parameter tensors, only their contents.
	params, grads []*tensor.Tensor
}

// NewNetwork builds a network from the given layers. The random source is
// used by layers that need randomness at run time (dropout); parameter
// initialization happens when the individual layers are constructed.
func NewNetwork(rng *rand.Rand, layers ...Layer) *Network {
	n := &Network{layers: layers, loss: NewSoftmaxCrossEntropy(), rng: rng}
	// Nothing consumes the first layer's input gradient (Backward drops it),
	// and for Dense and Conv2D it is a product the size of the weights.
	if len(layers) > 0 {
		if first, ok := layers[0].(interface{ skipInputGrad() }); ok {
			first.skipInputGrad()
		}
	}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
		n.grads = append(n.grads, l.Grads()...)
	}
	return n
}

// Layers returns the network's layers in order.
func (n *Network) Layers() []Layer {
	out := make([]Layer, len(n.layers))
	copy(out, n.layers)
	return out
}

// Forward runs the network on a batch and returns the logits.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	for _, l := range n.layers {
		out = l.Forward(out, train)
	}
	return out
}

// Loss runs a full forward pass, computes the mean cross-entropy loss
// against the integer labels, and returns both the loss and the logits.
func (n *Network) Loss(x *tensor.Tensor, labels []int, train bool) (float64, *tensor.Tensor) {
	logits := n.Forward(x, train)
	loss := n.loss.Forward(logits, labels)
	return loss, logits
}

// Backward propagates the loss gradient through the whole network,
// accumulating parameter gradients in every layer. It must follow a call to
// Loss with train=true.
func (n *Network) Backward() {
	grad := n.loss.Backward()
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
}

// Params returns every trainable parameter tensor of the network, in a
// stable order (layer by layer).
func (n *Network) Params() []*tensor.Tensor {
	return n.params[:len(n.params):len(n.params)]
}

// Grads returns every gradient tensor, aligned with Params.
func (n *Network) Grads() []*tensor.Tensor {
	return n.grads[:len(n.grads):len(n.grads)]
}

// ZeroGrads resets all accumulated gradients to zero.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// ParamCount returns the total number of trainable scalars, the quantity
// that determines the communication cost per iteration in the paper's
// compute/communication-ratio discussion (§V-C).
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Size()
	}
	return total
}

// SetParams copies the given tensors into the network's parameters. It is
// how a worker installs the global weights pulled from the parameter server.
func (n *Network) SetParams(params []*tensor.Tensor) error {
	own := n.Params()
	if len(params) != len(own) {
		return fmt.Errorf("nn: SetParams got %d tensors, network has %d", len(params), len(own))
	}
	for i, p := range params {
		if !own[i].SameShape(p) {
			return fmt.Errorf("nn: SetParams tensor %d shape %v does not match %v", i, p.Shape(), own[i].Shape())
		}
		copy(own[i].Data(), p.Data())
	}
	return nil
}

// CloneParams returns deep copies of the network's parameters.
func (n *Network) CloneParams() []*tensor.Tensor {
	params := n.Params()
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = p.Clone()
	}
	return out
}

// CloneGrads returns deep copies of the network's gradients.
func (n *Network) CloneGrads() []*tensor.Tensor {
	grads := n.Grads()
	out := make([]*tensor.Tensor, len(grads))
	for i, g := range grads {
		out[i] = g.Clone()
	}
	return out
}

// Predict returns the argmax class for every row of the logits produced by a
// forward pass in evaluation mode.
func (n *Network) Predict(x *tensor.Tensor) []int {
	logits := n.Forward(x, false)
	batch := logits.Dim(0)
	classes := logits.Dim(1)
	out := make([]int, batch)
	data := logits.Data()
	for b := 0; b < batch; b++ {
		row := data[b*classes : (b+1)*classes]
		best := 0
		for c, v := range row {
			if v > row[best] {
				best = c
			}
		}
		out[b] = best
	}
	return out
}

// Accuracy returns the fraction of rows whose predicted class equals the
// label.
func (n *Network) Accuracy(x *tensor.Tensor, labels []int) float64 {
	preds := n.Predict(x)
	if len(preds) != len(labels) {
		panic(fmt.Sprintf("nn: %d predictions for %d labels", len(preds), len(labels)))
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	if len(labels) == 0 {
		return 0
	}
	return float64(correct) / float64(len(labels))
}
