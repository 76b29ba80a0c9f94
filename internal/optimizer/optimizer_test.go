package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"dssp/internal/tensor"
)

// stepInPlace steps params in place from one set of float32 gradients, as the
// store applies a single push.
func stepInPlace(opt *SGD, params, grads []*tensor.Tensor) {
	gs := make([]tensor.Grad, len(grads))
	for i, g := range grads {
		gs[i].F32 = g.Data()
	}
	opt.StepFrom(params, params, [][]tensor.Grad{gs})
}

func TestSGDStepMovesAgainstGradient(t *testing.T) {
	p := tensor.FromSlice([]float32{1, 2, 3}, 3)
	g := tensor.FromSlice([]float32{1, -1, 0.5}, 3)
	opt := NewSGD(0.1)
	stepInPlace(opt, []*tensor.Tensor{p}, []*tensor.Tensor{g})
	want := []float32{0.9, 2.1, 2.95}
	for i, v := range p.Data() {
		if math.Abs(float64(v-want[i])) > 1e-6 {
			t.Errorf("param[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestSGDMomentumAcceleratesRepeatedGradients(t *testing.T) {
	pPlain := tensor.FromSlice([]float32{0}, 1)
	pMom := tensor.FromSlice([]float32{0}, 1)
	g := tensor.FromSlice([]float32{1}, 1)
	plain := NewSGD(0.1)
	mom := NewSGDMomentum(0.1, 0.9)
	for i := 0; i < 10; i++ {
		stepInPlace(plain, []*tensor.Tensor{pPlain}, []*tensor.Tensor{g})
		stepInPlace(mom, []*tensor.Tensor{pMom}, []*tensor.Tensor{g})
	}
	if !(pMom.At(0) < pPlain.At(0)) {
		t.Fatalf("momentum should move further: momentum %v, plain %v", pMom.At(0), pPlain.At(0))
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² with exact gradients.
	rng := rand.New(rand.NewSource(1))
	target := tensor.New(10).RandNormal(rng, 0, 1)
	w := tensor.New(10).RandNormal(rng, 0, 1)
	g := tensor.New(10)
	opt := NewSGDMomentum(0.1, 0.9)
	for i := 0; i < 200; i++ {
		copy(g.Data(), w.Data())
		g.Sub(target).Scale(2)
		stepInPlace(opt, []*tensor.Tensor{w}, []*tensor.Tensor{g})
	}
	diff := w.Clone().Sub(target)
	if diff.L2Norm() > 1e-3 {
		t.Fatalf("SGD did not converge: distance %v", diff.L2Norm())
	}
}

func TestSGDPanicsOnMismatchedInputs(t *testing.T) {
	opt := NewSGD(0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched param/grad counts")
		}
	}()
	stepInPlace(opt, []*tensor.Tensor{tensor.New(2)}, nil)
}
