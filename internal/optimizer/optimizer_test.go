package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"dssp/internal/tensor"
)

func TestSGDStepMovesAgainstGradient(t *testing.T) {
	p := tensor.FromSlice([]float32{1, 2, 3}, 3)
	g := tensor.FromSlice([]float32{1, -1, 0.5}, 3)
	opt := NewSGD(0.1)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
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
	mom := NewSGDMomentum(0.1, 0.9, 0)
	for i := 0; i < 10; i++ {
		plain.Step([]*tensor.Tensor{pPlain}, []*tensor.Tensor{g})
		mom.Step([]*tensor.Tensor{pMom}, []*tensor.Tensor{g})
	}
	if !(pMom.At(0) < pPlain.At(0)) {
		t.Fatalf("momentum should move further: momentum %v, plain %v", pMom.At(0), pPlain.At(0))
	}
}

func TestSGDWeightDecayShrinksParameters(t *testing.T) {
	p := tensor.FromSlice([]float32{10}, 1)
	g := tensor.FromSlice([]float32{0}, 1)
	opt := NewSGDMomentum(0.1, 0, 0.5)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if got := p.At(0); math.Abs(float64(got)-9.5) > 1e-6 {
		t.Fatalf("weight decay produced %v, want 9.5", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² with exact gradients.
	rng := rand.New(rand.NewSource(1))
	target := tensor.New(10).RandNormal(rng, 0, 1)
	w := tensor.New(10).RandNormal(rng, 0, 1)
	g := tensor.New(10)
	opt := NewSGDMomentum(0.1, 0.9, 0)
	for i := 0; i < 200; i++ {
		copy(g.Data(), w.Data())
		g.Sub(target).Scale(2)
		opt.Step([]*tensor.Tensor{w}, []*tensor.Tensor{g})
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
	opt.Step([]*tensor.Tensor{tensor.New(2)}, nil)
}

func TestLearningRateAccessors(t *testing.T) {
	opt := NewSGD(0.05)
	if opt.LearningRate() != 0.05 {
		t.Fatalf("LearningRate = %v", opt.LearningRate())
	}
	opt.SetLearningRate(0.001)
	if opt.LearningRate() != 0.001 {
		t.Fatalf("after SetLearningRate, got %v", opt.LearningRate())
	}
	if NewSGD(0.1).Name() == "" || NewSGDMomentum(0.1, 0.9, 1e-4).Name() == "" {
		t.Fatal("optimizer names must not be empty")
	}
}
