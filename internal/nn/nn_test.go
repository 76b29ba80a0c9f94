package nn

import (
	"math"
	"math/rand"
	"testing"

	"dssp/internal/tensor"
)

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	loss := NewSoftmaxCrossEntropy()
	// Two rows: the first puts all mass on the correct class (loss ~0), the
	// second is uniform over 4 classes (loss ln 4).
	logits := tensor.FromSlice([]float32{
		20, 0, 0, 0,
		0, 0, 0, 0,
	}, 2, 4)
	got := loss.Forward(logits, []int{0, 1})
	want := (0 + math.Log(4)) / 2
	if math.Abs(got-want) > 1e-4 {
		t.Fatalf("loss = %v, want %v", got, want)
	}
	grad := loss.Backward()
	if grad.Dim(0) != 2 || grad.Dim(1) != 4 {
		t.Fatalf("grad shape %v", grad.Shape())
	}
	// Gradient rows sum to zero (softmax minus one-hot).
	gd := grad.Data()
	for b := 0; b < 2; b++ {
		var s float64
		for c := 0; c < 4; c++ {
			s += float64(gd[b*4+c])
		}
		if math.Abs(s) > 1e-5 {
			t.Errorf("grad row %d sums to %v, want 0", b, s)
		}
	}
}

func TestSoftmaxCrossEntropyPanicsOnBadLabels(t *testing.T) {
	loss := NewSoftmaxCrossEntropy()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	loss.Forward(tensor.New(1, 3), []int{7})
}

func TestNetworkPredictAndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(rng, NewDense(rng, 4, 3))
	// Force the weights so that class = argmax of the first 3 features.
	w := net.Params()[0]
	w.Zero()
	for i := 0; i < 3; i++ {
		w.Set(5, i, i)
	}
	x := tensor.FromSlice([]float32{
		1, 0, 0, 9,
		0, 1, 0, 9,
		0, 0, 1, 9,
	}, 3, 4)
	preds := net.Predict(x)
	want := []int{0, 1, 2}
	for i := range want {
		if preds[i] != want[i] {
			t.Errorf("pred[%d] = %d, want %d", i, preds[i], want[i])
		}
	}
	if acc := net.Accuracy(x, want); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	if acc := net.Accuracy(x, []int{2, 1, 0}); math.Abs(acc-1.0/3.0) > 1e-9 {
		t.Errorf("accuracy = %v, want 1/3", acc)
	}
}

func TestNetworkParamsGradsAlignmentAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(rng,
		NewConv2D(rng, 1, 2, 3, 1, 1),
		NewBatchNorm(2),
		NewReLU(),
		NewFlatten(),
		NewDense(rng, 2*4*4, 3),
	)
	params := net.Params()
	grads := net.Grads()
	if len(params) != len(grads) {
		t.Fatalf("%d params vs %d grads", len(params), len(grads))
	}
	for i := range params {
		if !params[i].SameShape(grads[i]) {
			t.Errorf("param %d shape %v != grad shape %v", i, params[i].Shape(), grads[i].Shape())
		}
	}
	x := tensor.New(2, 1, 4, 4).RandNormal(rng, 0, 1)
	net.Loss(x, []int{0, 1}, true)
	net.Backward()
	nonZero := false
	for _, g := range net.Grads() {
		if g.L2Norm() > 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("backward produced all-zero gradients")
	}
	net.ZeroGrads()
	for i, g := range net.Grads() {
		if g.L2Norm() != 0 {
			t.Errorf("grad %d not cleared", i)
		}
	}
}

func TestNetworkSetParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := SmallMLP(rng, 6, 8, 3)
	b := SmallMLP(rand.New(rand.NewSource(4)), 6, 8, 3)

	if err := b.SetParams(a.CloneParams()); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 6).RandNormal(rng, 0, 1)
	outA := a.Forward(x, false)
	outB := b.Forward(x, false)
	if !outA.ApproxEqual(outB, 1e-6) {
		t.Fatal("networks with identical parameters disagree")
	}

	if err := b.SetParams(a.CloneParams()[:1]); err == nil {
		t.Fatal("expected error for wrong parameter count")
	}
	wrong := a.CloneParams()
	wrong[0] = tensor.New(2, 2)
	if err := b.SetParams(wrong); err == nil {
		t.Fatal("expected error for wrong parameter shape")
	}
}

// TestNetworkAdoptAndDetachParams: an adopting network computes on the
// storage it was handed, without a copy; detaching without keep never touches
// that storage again and restores the network's own values; detaching with
// keep carries the adopted values home; a SetParams in between lands in the
// network's own storage, not in the adopted one.
func TestNetworkAdoptAndDetachParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := SmallMLP(rng, 6, 8, 3)
	b := SmallMLP(rand.New(rand.NewSource(4)), 6, 8, 3)
	x := tensor.New(5, 6).RandNormal(rng, 0, 1)
	labels := []int{0, 1, 2, 0, 1}
	own := b.CloneParams()
	lossOwn, _ := b.Loss(x, labels, true)

	lent := a.CloneParams()
	if err := b.AdoptParams(lent); err != nil {
		t.Fatal(err)
	}
	for i, p := range b.Params() {
		if &p.Data()[0] != &lent[i].Data()[0] {
			t.Fatalf("parameter %d was copied, not adopted", i)
		}
	}
	lossA, _ := a.Loss(x, labels, true)
	if got, _ := b.Loss(x, labels, true); got != lossA {
		t.Fatalf("adopting network computes loss %v, the lender %v", got, lossA)
	}

	// The lease ends: the lender's storage turns to poison, and a detach
	// without keep must not read it.
	for _, p := range lent {
		p.Fill(float32(math.NaN()))
	}
	b.DetachParams(false)
	b.DetachParams(false) // a no-op the second time
	for i, p := range b.Params() {
		if !sameBits(p.Data(), own[i].Data()) {
			t.Fatalf("parameter %d after a detach without keep is not the network's own", i)
		}
	}
	if got, _ := b.Loss(x, labels, true); got != lossOwn {
		t.Fatalf("detached network computes loss %v, want its own %v", got, lossOwn)
	}

	// With keep the adopted values come home.
	lent = a.CloneParams()
	if err := b.AdoptParams(lent); err != nil {
		t.Fatal(err)
	}
	b.DetachParams(true)
	for i, p := range b.Params() {
		if &p.Data()[0] == &lent[i].Data()[0] || !sameBits(p.Data(), lent[i].Data()) {
			t.Fatalf("parameter %d after a detach with keep is not a copy of the adopted values", i)
		}
	}

	// SetParams writes the network's own storage, never the adopted one.
	if err := b.AdoptParams(lent); err != nil {
		t.Fatal(err)
	}
	if err := b.SetParams(own); err != nil {
		t.Fatal(err)
	}
	for i, p := range b.Params() {
		if !sameBits(p.Data(), own[i].Data()) || !sameBits(lent[i].Data(), a.Params()[i].Data()) {
			t.Fatalf("SetParams on an adopting network: parameter %d landed in the wrong storage", i)
		}
	}

	if err := b.AdoptParams(lent[:1]); err == nil {
		t.Fatal("expected error for wrong parameter count")
	}
	lent[0] = tensor.New(2, 2)
	if err := b.AdoptParams(lent); err == nil {
		t.Fatal("expected error for wrong parameter shape")
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout(rng, 0.5)
	x := tensor.Full(1, 10, 10)
	eval := d.Forward(x, false)
	if !eval.ApproxEqual(x, 0) {
		t.Fatal("dropout must be identity in evaluation mode")
	}
	train := d.Forward(x, true)
	zeros := 0
	for _, v := range train.Data() {
		if v == 0 {
			zeros++
		} else if math.Abs(float64(v)-2) > 1e-6 {
			t.Fatalf("kept activation scaled to %v, want 2", v)
		}
	}
	if zeros == 0 || zeros == train.Size() {
		t.Fatalf("dropout dropped %d of %d values, expected a strict subset", zeros, train.Size())
	}
}

func TestDropoutRejectsInvalidRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid dropout rate")
		}
	}()
	NewDropout(rand.New(rand.NewSource(1)), 1.5)
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm(2)
	x := tensor.New(4, 2, 3, 3).RandNormal(rng, 5, 3)
	out := bn.Forward(x, true)
	// With gamma=1, beta=0 the normalized output of each channel should have
	// approximately zero mean and unit variance.
	od := out.Data()
	for c := 0; c < 2; c++ {
		var sum, sq float64
		count := 0
		for b := 0; b < 4; b++ {
			base := (b*2 + c) * 9
			for i := 0; i < 9; i++ {
				v := float64(od[base+i])
				sum += v
				sq += v * v
				count++
			}
		}
		mean := sum / float64(count)
		variance := sq/float64(count) - mean*mean
		if math.Abs(mean) > 1e-3 {
			t.Errorf("channel %d mean = %v, want ~0", c, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("channel %d variance = %v, want ~1", c, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm(1)
	// Run enough training batches for the exponentially averaged running
	// statistics (momentum 0.9) to converge to the data distribution.
	for i := 0; i < 60; i++ {
		x := tensor.New(8, 1, 2, 2).RandNormal(rng, 3, 1)
		bn.Forward(x, true)
	}
	// In eval mode an input equal to the running mean should map to ~beta.
	x := tensor.Full(3, 1, 1, 2, 2)
	out := bn.Forward(x, false)
	for _, v := range out.Data() {
		if math.Abs(float64(v)) > 0.3 {
			t.Fatalf("eval output %v, want ~0 for input at the running mean", v)
		}
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := NewMaxPool2D(2)
	out := p.Forward(x, false)
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Errorf("pool[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 2, -3, 4}, 4)
	out := r.Forward(x, true)
	want := []float32{0, 2, 0, 4}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Errorf("relu[%d] = %v, want %v", i, v, want[i])
		}
	}
	grad := r.Backward(tensor.FromSlice([]float32{10, 10, 10, 10}, 4))
	wantGrad := []float32{0, 10, 0, 10}
	for i, v := range grad.Data() {
		if v != wantGrad[i] {
			t.Errorf("relu grad[%d] = %v, want %v", i, v, wantGrad[i])
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 4).RandNormal(rng, 0, 1)
	out := f.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", out.Shape())
	}
	back := f.Backward(out)
	if !back.ApproxEqual(x, 0) {
		t.Fatal("flatten backward did not restore the original layout")
	}
}

func TestSmallMLPLearnsLinearlySeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := SmallMLP(rng, 2, 16, 2)
	// Class = whether x+y > 0.
	const n = 128
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		x.Set(float32(a), i, 0)
		x.Set(float32(b), i, 1)
		if a+b > 0 {
			labels[i] = 1
		}
	}
	initialLoss, _ := net.Loss(x, labels, true)
	lr := float32(0.5)
	for epoch := 0; epoch < 200; epoch++ {
		net.ZeroGrads()
		net.Loss(x, labels, true)
		net.Backward()
		params, grads := net.Params(), net.Grads()
		for i := range params {
			params[i].AXPY(-lr, grads[i])
		}
	}
	finalLoss, _ := net.Loss(x, labels, false)
	if finalLoss >= initialLoss {
		t.Fatalf("training did not reduce loss: %v -> %v", initialLoss, finalLoss)
	}
	if acc := net.Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("training accuracy %v, want >= 0.9", acc)
	}
}

// TestFirstLayerSkipsInputGradient pins what NewNetwork tells its first
// layer: a Dense or Conv2D at the front returns no input gradient — nobody
// reads it — and accumulates bit for bit the parameter gradients of the same
// layer deeper in a stack, where it must still produce one.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	for _, tc := range []struct {
		name  string
		layer func(rng *rand.Rand) Layer
		input []int
	}{
		{"dense", func(rng *rand.Rand) Layer { return NewDense(rng, 12, 5) }, []int{3, 12}},
		{"conv", func(rng *rand.Rand) Layer { return NewConv2D(rng, 2, 4, 3, 1, 1) }, []int{3, 2, 5, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.New(tc.input...)
			x.RandNormal(rand.New(rand.NewSource(1)), 0, 1)
			first := tc.layer(rand.New(rand.NewSource(2)))
			inner := tc.layer(rand.New(rand.NewSource(2)))
			NewNetwork(rand.New(rand.NewSource(3)), first)
			out := first.Forward(x, true)
			grad := tensor.New(out.Shape()...)
			grad.RandNormal(rand.New(rand.NewSource(4)), 0, 1)
			if dx := first.Backward(grad); dx != nil {
				t.Errorf("a network's first layer returned an input gradient of shape %v", dx.Shape())
			}
			inner.Forward(x, true)
			if dx := inner.Backward(grad); dx == nil || dx.Size() != x.Size() {
				t.Fatalf("a layer outside the front of a network returned input gradient %v", dx)
			}
			for i, g := range first.Grads() {
				for j, v := range g.Data() {
					if w := inner.Grads()[i].Data()[j]; math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("gradient %d[%d] is %v without the input gradient, %v with it", i, j, v, w)
					}
				}
			}
		})
	}
}
