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
// Inside a Network, what no later pass reads comes from the network's pool
// instead and is valid only until the call that consumes it returns
// (scratch.go). Inputs are only read, except that a layer may add into or
// overwrite a gradient or activation it was just handed by the layer that
// produced it.
type Layer interface {
	// Forward computes the layer output for input x. When train is false the
	// layer must behave deterministically (e.g. dropout disabled, batch norm
	// using running statistics), returns a tensor the caller owns, and leaves
	// the state of a training pass in flight untouched.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor

	// Backward receives the gradient of the loss with respect to the layer
	// output and returns the gradient with respect to the layer input. It
	// leaves this pass's parameter gradients in Grads, overwriting whatever
	// the last pass left there — bit for bit what adding them into zeroed
	// tensors would leave, the sign of a zero included. It must be called
	// after Forward with train=true.
	Backward(grad *tensor.Tensor) *tensor.Tensor

	// Params returns the layer's trainable parameter tensors. The returned
	// tensors share storage with the layer, so mutating them updates the
	// layer.
	Params() []*tensor.Tensor

	// Grads returns the gradients of the last Backward, aligned with Params.
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
	// their parameter or gradient tensors, only their contents — or, between
	// AdoptParams and DetachParams (AdoptGrads and DetachGrads), the storage
	// they point at.
	params, grads []*tensor.Tensor
	// home and gradHome are the storage each parameter and gradient tensor
	// was built on; adopted and gradsAdopted say some point somewhere else.
	home, gradHome        [][]float32
	adopted, gradsAdopted bool

	// pool holds the training buffers no later pass reads (scratch.go).
	pool pool
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
	n.planBuffers(&n.pool)
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
		n.grads = append(n.grads, l.Grads()...)
	}
	n.home = make([][]float32, len(n.params))
	for i, p := range n.params {
		n.home[i] = p.Data()
	}
	n.gradHome = make([][]float32, len(n.grads))
	for i, g := range n.grads {
		n.gradHome[i] = g.Data()
	}
	return n
}

// planBuffers points every layer's input gradient at p, and its training
// output too where the next layer reads no more of it once its Forward
// returns (scratch.go); a nil p leaves every buffer with its layer.
func (n *Network) planBuffers(p *pool) {
	for i, l := range n.layers {
		if pl, ok := l.(pooler); ok {
			var out *pool
			if i+1 < len(n.layers) && dropsInput(n.layers[i+1]) {
				out = p
			}
			pl.usePool(out, p)
		}
	}
}

// dropsInput reports whether l reads its training input only inside its
// Forward: it copies what Backward needs (Conv2D, Flatten, Dropout) or keeps
// only its shape and what it computed (BatchNorm, ReLU, the pools).
func dropsInput(l Layer) bool {
	switch l.(type) {
	case *Conv2D, *BatchNorm, *ReLU, *MaxPool2D, *GlobalAvgPool, *Flatten, *Dropout:
		return true
	}
	return false
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

// Backward propagates the loss gradient through the whole network, leaving
// this pass's parameter gradients in every layer (Layer.Backward): no
// ZeroGrads is needed between passes. It must follow a call to Loss with
// train=true.
func (n *Network) Backward() { n.BackwardFactors(nil) }

// BackwardFactors is Backward leaving the weight gradient of a first Dense
// layer, Grads()[0], unmultiplied: factors, aligned with Grads, gets that
// gradient as its two factors (tensor.Factors: the layer's input x and the
// gradient dy at its output, dW being xᵀ·dy) and zero entries for the other
// gradients, which Backward computes as ever; dW's own tensor is not
// written. Only the first layer's: the last Backward of a pass, nothing
// reuses the buffer dy is in before the next pass, so the factors stay valid
// until the next training Forward, like Backward's results. Nil factors, or a
// network whose first layer is not Dense, is Backward.
func (n *Network) BackwardFactors(factors []tensor.Factors) {
	clear(factors)
	grad := n.loss.Backward()
	for i := len(n.layers) - 1; i >= 0; i-- {
		if d, ok := n.layers[i].(*Dense); ok && i == 0 && factors != nil {
			factors[0] = tensor.Factors{A: d.lastInput, B: grad}
			d.backward(grad, false)
			return
		}
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

// ZeroGrads resets all gradients to zero. Backward overwrites them, so a
// training loop has no use for it; it is for callers that read Grads before
// any pass has run.
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

// SetParams copies the given tensors into the network's own parameter
// storage (detaching first, should anything be adopted): how an evaluator
// installs a snapshot of the global weights in a model of its own.
func (n *Network) SetParams(params []*tensor.Tensor) error {
	if err := checkShapes("SetParams", n.params, params); err != nil {
		return err
	}
	n.DetachParams(false)
	for i, p := range params {
		copy(n.params[i].Data(), p.Data())
	}
	return nil
}

// AdoptParams points the network's parameters at the given tensors' storage
// instead of copying it: how a worker installs the weights it pulled, which
// are on lease from the parameter-server client until its next Pull. The
// network only reads its parameters, so the storage may be read-only; whoever
// adopts must call DetachParams before that storage stops being readable.
func (n *Network) AdoptParams(params []*tensor.Tensor) error {
	if err := checkShapes("AdoptParams", n.params, params); err != nil {
		return err
	}
	for i, p := range params {
		n.params[i].Rebind(p.Data())
	}
	n.adopted = true
	return nil
}

// DetachParams points the parameters back at the network's own storage. With
// keep the adopted values are copied there first, so the caller vouches they
// are still readable; without, adopted storage is not touched and the
// parameters read whatever the network's own storage last held. A no-op on a
// network that adopted nothing.
func (n *Network) DetachParams(keep bool) {
	if !n.adopted {
		return
	}
	for i, p := range n.params {
		if keep {
			copy(n.home[i], p.Data())
		}
		p.Rebind(n.home[i])
	}
	n.adopted = false
}

// AdoptGrads points the network's gradient tensors at the given tensors'
// storage, so that Backward leaves its gradients there: how a worker computes
// a push where the transport sends it from. A nil entry puts that gradient
// back on the network's own storage. Backward sets every gradient without
// reading it, so the values are bit for bit what the network's own storage
// would have received; whoever adopts must call DetachGrads before that
// storage stops being writable.
func (n *Network) AdoptGrads(grads []*tensor.Tensor) error {
	if err := checkShapes("AdoptGrads", n.grads, grads); err != nil {
		return err
	}
	n.gradsAdopted = false
	for i, g := range grads {
		data := n.gradHome[i]
		if g != nil {
			data, n.gradsAdopted = g.Data(), true
		}
		n.grads[i].Rebind(data)
	}
	return nil
}

// DetachGrads points the gradients back at the network's own storage without
// reading the adopted one, so they read whatever that storage last held. A
// no-op on a network that adopted nothing.
func (n *Network) DetachGrads() {
	if !n.gradsAdopted {
		return
	}
	for i, g := range n.grads {
		g.Rebind(n.gradHome[i])
	}
	n.gradsAdopted = false
}

// checkShapes reports whether got matches want in count and shapes; a nil
// entry of got matches anything.
func checkShapes(op string, want, got []*tensor.Tensor) error {
	if len(got) != len(want) {
		return fmt.Errorf("nn: %s got %d tensors, network has %d", op, len(got), len(want))
	}
	for i, g := range got {
		if g != nil && !want[i].SameShape(g) {
			return fmt.Errorf("nn: %s tensor %d shape %v does not match %v", op, i, g.Shape(), want[i].Shape())
		}
	}
	return nil
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
