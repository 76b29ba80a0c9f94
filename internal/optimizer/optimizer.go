// Package optimizer implements the stochastic-gradient-descent update rules
// the parameter server applies: plain SGD and SGD with momentum, the latter
// with an optional weight-decay term. The learning rate is constant for a
// run; a restored checkpoint sets it back to the rate it was saved at.
package optimizer

import (
	"fmt"

	"dssp/internal/tensor"
)

// Optimizer applies parameter updates computed from gradients. In the
// parameter-server architecture the optimizer lives on the server and is
// applied to the globally shared weights whenever a worker pushes gradients.
type Optimizer interface {
	// Step applies one update to params given the aligned grads.
	Step(params, grads []*tensor.Tensor)
	// SetLearningRate changes the learning rate used by subsequent steps.
	SetLearningRate(lr float64)
	// LearningRate returns the current learning rate.
	LearningRate() float64
	// Name returns a short description of the optimizer.
	Name() string
	// Clone returns a fresh optimizer with the same hyperparameters and no
	// accumulated state. The sharded parameter store gives each shard its own
	// clone so that per-parameter state (e.g. momentum velocity) stays aligned
	// with the shard's parameter slice.
	Clone() Optimizer
	// State returns a deep copy of the optimizer's accumulated per-parameter
	// state (momentum velocity for SGD), aligned with the parameter list it
	// has been stepping, or nil when it holds none. Checkpoints persist it so
	// a restored server resumes with the same update dynamics.
	State() [][]float32
	// LoadState replaces the accumulated state with a deep copy of state
	// (nil clears it). The next Step must see parameter tensors whose sizes
	// match the loaded state.
	LoadState(state [][]float32)
}

// FusedStepper is implemented by optimizers that can apply a whole coalesced
// push batch in one fused pass per parameter tensor: gradient summation,
// weight decay, momentum update, and the parameter write happen per element,
// so each gradient value is read exactly once and no summed-gradient or
// cloned-parameter temporary is materialized.
//
// StepFrom reads parameters from src and writes the updated values to dst;
// dst may alias src element-wise (in-place update) or be a completely
// separate buffer (the parameter server's copy-on-write publication path).
// batch is a non-empty sequence of aligned gradient sets, each gradient read
// from where it arrived (tensor.Grad): float32 values, or the half-precision
// payload of an fp16 push, widened as it is read. The result must be
// bit-identical to decoding every half source, cloning src, summing the batch
// in order with a running element-wise accumulation (((b0+b1)+b2)+…), and
// calling Step on the clone — the contract that lets the store switch between
// the fused and unfused paths, and apply an fp16 push without decoding it,
// without changing training dynamics.
type FusedStepper interface {
	StepFrom(dst, src []*tensor.Tensor, batch [][]tensor.Grad)
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay: v = mu*v + grad + wd*param; param -= lr * v.
type SGD struct {
	lr       float64
	momentum float64
	decay    float64
	velocity [][]float32
	gscratch []tensor.Grad // reused per-tensor gradient-source list of a fused step
}

// NewSGD returns a plain SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// NewSGDMomentum returns an SGD optimizer with momentum and weight decay.
func NewSGDMomentum(lr, momentum, weightDecay float64) *SGD {
	return &SGD{lr: lr, momentum: momentum, decay: weightDecay}
}

// Step implements Optimizer.
func (s *SGD) Step(params, grads []*tensor.Tensor) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("optimizer: %d params but %d grads", len(params), len(grads)))
	}
	if s.momentum > 0 && s.velocity == nil {
		s.velocity = make([][]float32, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float32, p.Size())
		}
	}
	lr := float32(s.lr)
	mu := float32(s.momentum)
	wd := float32(s.decay)
	for i, p := range params {
		pd := p.Data()
		gd := grads[i].Data()
		if len(pd) != len(gd) {
			panic(fmt.Sprintf("optimizer: param %d has %d values but grad has %d", i, len(pd), len(gd)))
		}
		if s.momentum > 0 {
			v := s.velocity[i]
			for j := range pd {
				g := gd[j] + wd*pd[j]
				v[j] = mu*v[j] + g
				pd[j] -= lr * v[j]
			}
		} else {
			for j := range pd {
				g := gd[j] + wd*pd[j]
				pd[j] -= lr * g
			}
		}
	}
}

// StepFrom implements FusedStepper for SGD: one pass per parameter tensor
// fuses the batch gradient sum, weight decay, momentum update, and parameter
// write, in internal/tensor's SGD kernels (assembly where the CPU has it, the
// same bits either way). See the interface for the aliasing and bit-identity
// contract.
func (s *SGD) StepFrom(dst, src []*tensor.Tensor, batch [][]tensor.Grad) {
	for _, grads := range batch {
		if len(grads) != len(src) {
			panic(fmt.Sprintf("optimizer: %d params but %d grads", len(src), len(grads)))
		}
	}
	s.step(dst, src, len(batch), func(b, i int) tensor.Grad { return batch[b][i] })
}

// StepInto is StepFrom over float32 gradient tensors.
func (s *SGD) StepInto(dst, src []*tensor.Tensor, batch [][]*tensor.Tensor) {
	for _, grads := range batch {
		if len(grads) != len(src) {
			panic(fmt.Sprintf("optimizer: %d params but %d grads", len(src), len(grads)))
		}
	}
	s.step(dst, src, len(batch), func(b, i int) tensor.Grad { return tensor.Grad{F32: batch[b][i].Data()} })
}

// step is the fused step over a batch of n gradient sets, grad(b, i) being
// set b's source for parameter i.
func (s *SGD) step(dst, src []*tensor.Tensor, n int, grad func(b, i int) tensor.Grad) {
	if n == 0 {
		panic("optimizer: a fused step needs a non-empty batch")
	}
	if len(dst) != len(src) {
		panic(fmt.Sprintf("optimizer: %d dst tensors but %d src", len(dst), len(src)))
	}
	if s.momentum > 0 && s.velocity == nil {
		s.velocity = make([][]float32, len(src))
		for i, p := range src {
			s.velocity[i] = make([]float32, p.Size())
		}
	}
	lr := float32(s.lr)
	mu := float32(s.momentum)
	wd := float32(s.decay)
	if cap(s.gscratch) < n {
		s.gscratch = make([]tensor.Grad, n)
	}
	gs := s.gscratch[:n]
	for i := range src {
		sd := src[i].Data()
		dd := dst[i].Data()
		if len(dd) != len(sd) {
			panic(fmt.Sprintf("optimizer: param %d has %d values but dst has %d", i, len(sd), len(dd)))
		}
		for b := range gs {
			g := grad(b, i)
			if g.Half != nil && len(g.Half) != 2*len(sd) || g.Half == nil && len(g.F32) != len(sd) {
				panic(fmt.Sprintf("optimizer: param %d has %d values but grad %d has %d float32 and %d half bytes",
					i, len(sd), b, len(g.F32), len(g.Half)))
			}
			gs[b] = g
		}
		if s.momentum > 0 {
			tensor.SGDMomentumStep(dd, sd, s.velocity[i], gs, lr, mu, wd)
		} else {
			tensor.SGDStep(dd, sd, gs, lr, wd)
		}
	}
	clear(gs) // drop the references to the batch's buffers
}

// Clone implements Optimizer: the clone shares hyperparameters but starts
// with zero velocity.
func (s *SGD) Clone() Optimizer {
	return &SGD{lr: s.lr, momentum: s.momentum, decay: s.decay}
}

// State implements Optimizer: a deep copy of the momentum velocity, nil when
// momentum is off or no step has run yet.
func (s *SGD) State() [][]float32 {
	if s.velocity == nil {
		return nil
	}
	out := make([][]float32, len(s.velocity))
	for i, v := range s.velocity {
		out[i] = append([]float32(nil), v...)
	}
	return out
}

// LoadState implements Optimizer.
func (s *SGD) LoadState(state [][]float32) {
	if state == nil {
		s.velocity = nil
		return
	}
	s.velocity = make([][]float32, len(state))
	for i, v := range state {
		s.velocity[i] = append([]float32(nil), v...)
	}
}

// SetLearningRate implements Optimizer.
func (s *SGD) SetLearningRate(lr float64) { s.lr = lr }

// LearningRate implements Optimizer.
func (s *SGD) LearningRate() float64 { return s.lr }

// Name implements Optimizer.
func (s *SGD) Name() string {
	if s.momentum > 0 {
		return fmt.Sprintf("SGD(lr=%g,momentum=%g,wd=%g)", s.lr, s.momentum, s.decay)
	}
	return fmt.Sprintf("SGD(lr=%g)", s.lr)
}
