// Package optimizer implements the one update rule the parameter server
// applies: stochastic gradient descent, plain or with momentum, stepped
// straight from a coalesced batch of pushes (SGD.StepFrom). The learning
// rate is constant for a run, a restored one included: a checkpoint holds
// weights and velocity, not the rate.
package optimizer

import (
	"fmt"

	"dssp/internal/tensor"
)

// SGD is stochastic gradient descent with optional momentum:
// v = mu*v + grad; param -= lr * v (param -= lr * grad without momentum).
// The parameter store steps the globally shared weights with it whenever a
// worker's push is applied, one SGD per shard so that momentum velocity is
// indexed by position within the shard.
type SGD struct {
	lr       float64
	momentum float64
	velocity [][]float32
	gscratch []tensor.Grad // reused per-tensor gradient-source list of a step
}

// NewSGD returns a plain SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// NewSGDMomentum returns an SGD optimizer with momentum.
func NewSGDMomentum(lr, momentum float64) *SGD {
	return &SGD{lr: lr, momentum: momentum}
}

// StepFrom applies a whole coalesced push batch in one fused pass per
// parameter tensor: the gradient sum, the momentum update and the parameter
// write happen per element, in internal/tensor's SGD kernels (assembly where
// the CPU has it, the same bits either way), so each gradient value is read
// exactly once and no summed-gradient or cloned-parameter temporary is
// materialized.
//
// It reads parameters from src and writes the updated values to dst; dst may
// alias src element-wise (an in-place update) or be a completely separate
// buffer (the parameter server's copy-on-write publication path). batch is a
// non-empty sequence of aligned gradient sets, each gradient read from where
// it arrived (tensor.Grad): float32 values, or the half-precision payload of
// an fp16 push, widened as it is read. The result is bit-identical to
// decoding every half source, cloning src, summing the batch in order with a
// running element-wise accumulation (((b0+b1)+b2)+…) and taking one scalar
// SGD step on the clone: coalescing pushes, or applying an fp16 push without
// decoding it, does not change training dynamics.
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
			tensor.SGDMomentumStep(dd, sd, s.velocity[i], gs, lr, mu)
		} else {
			tensor.SGDStep(dd, sd, gs, lr)
		}
	}
	clear(gs) // drop the references to the batch's buffers
}

// Clone returns a fresh optimizer with the same hyperparameters and zero
// velocity: the sharded parameter store gives each shard its own.
func (s *SGD) Clone() *SGD {
	return &SGD{lr: s.lr, momentum: s.momentum}
}

// State returns a deep copy of the momentum velocity, aligned with the
// parameter list it has been stepping, nil when momentum is off or no step
// has run yet. Checkpoints persist it so a restored server resumes with the
// same update dynamics.
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

// LoadState replaces the velocity with a deep copy of state (nil clears it).
// The next step must see parameter tensors whose sizes match the loaded
// state.
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
