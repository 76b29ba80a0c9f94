package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

func randParams(rng *rand.Rand, shapes [][]int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		out[i] = tensor.New(s...).RandNormal(rng, 0, 1)
	}
	return out
}

// referenceApply is the unfused path the store used before the fused step:
// clone the parameters, sum the batch in order with sequential element-wise
// adds, and call Step on the clone. StepInto must match it bit for bit.
func referenceApply(opt *SGD, params []*tensor.Tensor, batch [][]*tensor.Tensor) []*tensor.Tensor {
	next := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		next[i] = p.Clone()
	}
	sum := make([]*tensor.Tensor, len(params))
	for i, g := range batch[0] {
		sum[i] = g.Clone()
	}
	for _, grads := range batch[1:] {
		for i, g := range grads {
			sum[i].Add(g)
		}
	}
	opt.Step(next, sum)
	return next
}

func TestStepIntoBitIdenticalToCloneSumStep(t *testing.T) {
	shapes := [][]int{{7, 5}, {16}, {3, 3, 2}, {1}}
	for _, tc := range []struct {
		name string
		mk   func() *SGD
	}{
		{"plain", func() *SGD { return NewSGD(0.1) }},
		{"momentum+decay", func() *SGD { return NewSGDMomentum(0.05, 0.9, 1e-4) }},
		{"decay-only", func() *SGD { return NewSGDMomentum(0.05, 0, 5e-4) }},
	} {
		for batchSize := 1; batchSize <= 6; batchSize++ {
			rng := rand.New(rand.NewSource(int64(batchSize)))
			params := randParams(rng, shapes)
			batches := make([][][]*tensor.Tensor, 3)
			for r := range batches {
				batch := make([][]*tensor.Tensor, batchSize)
				for b := range batch {
					batch[b] = randParams(rng, shapes)
				}
				batches[r] = batch
			}

			fused := tc.mk()
			unfused := tc.mk()
			cur := params
			ref := params
			// Run several rounds so momentum state feeds forward through
			// both paths, then compare parameters and velocity exactly.
			for r, batch := range batches {
				next := make([]*tensor.Tensor, len(cur))
				for i, p := range cur {
					next[i] = tensor.New(p.Shape()...)
				}
				fused.StepInto(next, cur, batch)
				cur = next
				ref = referenceApply(unfused, ref, batch)
				for i := range cur {
					if !cur[i].ApproxEqual(ref[i], 0) {
						t.Fatalf("%s k=%d round %d: param %d differs from reference", tc.name, batchSize, r, i)
					}
				}
			}
			fs, us := fused.State(), unfused.State()
			if (fs == nil) != (us == nil) {
				t.Fatalf("%s k=%d: velocity presence differs", tc.name, batchSize)
			}
			for i := range fs {
				for j := range fs[i] {
					if fs[i][j] != us[i][j] {
						t.Fatalf("%s k=%d: velocity[%d][%d] differs", tc.name, batchSize, i, j)
					}
				}
			}
		}
	}
}

func TestStepIntoInPlaceAliasing(t *testing.T) {
	// dst aliasing src element-wise must give the same result as a separate
	// destination buffer.
	rng := rand.New(rand.NewSource(42))
	shapes := [][]int{{9, 4}, {11}}
	params := randParams(rng, shapes)
	batch := [][]*tensor.Tensor{randParams(rng, shapes), randParams(rng, shapes)}

	separate := NewSGDMomentum(0.1, 0.9, 1e-4)
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = tensor.New(p.Shape()...)
	}
	separate.StepInto(out, params, batch)

	inPlace := NewSGDMomentum(0.1, 0.9, 1e-4)
	aliased := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		aliased[i] = p.Clone()
	}
	inPlace.StepInto(aliased, aliased, batch)

	for i := range out {
		if !out[i].ApproxEqual(aliased[i], 0) {
			t.Fatalf("in-place StepInto differs from separate-buffer result at param %d", i)
		}
	}
}

func TestStepIntoPanicsOnMismatchedInputs(t *testing.T) {
	p := []*tensor.Tensor{tensor.New(2, 2)}
	g := []*tensor.Tensor{tensor.New(2, 2)}
	for name, fn := range map[string]func(){
		"empty batch": func() { NewSGD(0.1).StepInto(p, p, nil) },
		"dst/src len": func() { NewSGD(0.1).StepInto(nil, p, [][]*tensor.Tensor{g}) },
		"grad count":  func() { NewSGD(0.1).StepInto(p, p, [][]*tensor.Tensor{{}}) },
		"grad size": func() {
			NewSGD(0.1).StepInto(p, p, [][]*tensor.Tensor{{tensor.New(3)}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestStepFromHalfSourcesMatchDecodeThenStep: a batch whose sets mix fp16
// payloads (tensor.Grad.Half) with float32 gradients steps — momentum state
// included, over several steps — exactly as decoding the payloads with the
// codec and stepping from the float32 copies does.
func TestStepFromHalfSourcesMatchDecodeThenStep(t *testing.T) {
	shapes := [][]int{{7, 5}, {16}, {3, 3, 2}, {1}}
	rng := rand.New(rand.NewSource(48))
	cfg := compress.Config{Codec: compress.FP16}
	params := randParams(rng, shapes)
	half, decoded := NewSGDMomentum(0.05, 0.9, 1e-4), NewSGDMomentum(0.05, 0.9, 1e-4)
	got, want := cloneAll(params), cloneAll(params)
	for step := 0; step < 3; step++ {
		batch := make([][]tensor.Grad, 3)
		dense := make([][]*tensor.Tensor, 3)
		for b := range batch {
			grads := randParams(rng, shapes)
			packed := compress.Pack(grads, cfg)
			if dense[b] = grads; b != 1 {
				var err error
				if dense[b], err = compress.DecompressAllReuse(packed, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := range grads {
				g := tensor.Grad{F32: grads[i].Data()}
				if b != 1 {
					g = tensor.Grad{Half: packed[i].Payload}
				}
				batch[b] = append(batch[b], g)
			}
		}
		half.StepFrom(got, got, batch)
		decoded.StepInto(want, want, dense)
		for i := range got {
			if !sameBits(got[i].Data(), want[i].Data()) {
				t.Fatalf("step %d: param %d differs from decode-then-step", step, i)
			}
		}
	}
}

func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func benchFusedInputs(paramSize, batchSize int) ([]*tensor.Tensor, []*tensor.Tensor, [][]*tensor.Tensor) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][]int{{paramSize}}
	src := randParams(rng, shapes)
	dst := []*tensor.Tensor{tensor.New(paramSize)}
	batch := make([][]*tensor.Tensor, batchSize)
	for b := range batch {
		batch[b] = randParams(rng, shapes)
	}
	return dst, src, batch
}

// The fused-step benchmarks name the bound kernel in their one sub-benchmark,
// as tensor.BenchmarkMatMul128 does and for the same reason: the bench gate
// pins both, under the name this machine produces.

func BenchmarkFusedStepMomentumBatch4(b *testing.B) {
	benchFusedStep(b, NewSGDMomentum(0.05, 0.9, 1e-4), 64*1024, 4)
}

// BenchmarkFusedStepPlain262k is the store's step on flat-comm: the wide
// MLP's 262 144 parameters, one push at a time, plain SGD.
func BenchmarkFusedStepPlain262k(b *testing.B) {
	benchFusedStep(b, NewSGD(0.001), 256*1024, 1)
}

// BenchmarkFusedStepF16Plain262k is BenchmarkFusedStepPlain262k with the
// push an fp16 payload, as the store steps flat-comm-fp16's: widened in the
// same pass (VCVTPH2PS into the step's arithmetic), no decode.
func BenchmarkFusedStepF16Plain262k(b *testing.B) {
	b.Run("kernel="+tensor.Kernel(), func(b *testing.B) {
		const paramSize = 256 * 1024
		dst, src, batch := benchFusedInputs(paramSize, 1)
		packed := compress.Pack(batch[0], compress.Config{Codec: compress.FP16})
		grads := [][]tensor.Grad{{{Half: packed[0].Payload}}}
		opt := NewSGD(0.001)
		b.SetBytes(int64(4 * paramSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.StepFrom(dst, src, grads)
		}
	})
}

func benchFusedStep(b *testing.B, opt *SGD, paramSize, batchSize int) {
	b.Run("kernel="+tensor.Kernel(), func(b *testing.B) {
		dst, src, batch := benchFusedInputs(paramSize, batchSize)
		opt.StepInto(dst, src, batch) // allocate velocity up front
		b.SetBytes(int64(4 * paramSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.StepInto(dst, src, batch)
		}
	})
}

func BenchmarkUnfusedStepMomentumBatch4(b *testing.B) {
	// The clone+sum+Step sequence the fused kernel replaces, for comparison.
	_, src, batch := benchFusedInputs(64*1024, 4)
	opt := NewSGDMomentum(0.05, 0.9, 1e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceApply(opt, src, batch)
	}
}
