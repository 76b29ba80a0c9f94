package nn

import (
	"math/rand"
	"testing"

	"dssp/internal/tensor"
)

// BenchmarkDownsizedAlexNetIteration measures one forward+backward pass of
// the paper's downsized AlexNet on a small batch, the per-iteration compute
// cost a worker pays on a CPU.
func BenchmarkDownsizedAlexNetIteration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := DownsizedAlexNet(rng, 16, 10)
	x := tensor.New(4, 3, 16, 16).RandNormal(rng, 0, 1)
	labels := []int{0, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.Loss(x, labels, true)
		net.Backward()
	}
}

// BenchmarkResNet8Iteration measures one forward+backward pass of the
// smallest CIFAR-style ResNet.
func BenchmarkResNet8Iteration(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := ResNetCIFAR(rng, 8, 10)
	x := tensor.New(2, 3, 16, 16).RandNormal(rng, 0, 1)
	labels := []int{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.Loss(x, labels, true)
		net.Backward()
	}
}

// BenchmarkResNet8IterationBatch8 is the same model at the end-to-end
// benchmark's flat-compute shape (batch 8, 32×32): conv products up to
// 16×144×1024 per image, which the 2×16×16 input above never reaches. Its one
// sub-benchmark names the bound kernels, as BenchmarkMatMul128's does: the
// bench gate pins it, and the assembly is several times the Go loops.
func BenchmarkResNet8IterationBatch8(b *testing.B) {
	b.Run("kernel="+tensor.Kernel(), func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		net := ResNetCIFAR(rng, 8, 10)
		x := tensor.New(8, 3, 32, 32).RandNormal(rng, 0, 1)
		labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.ZeroGrads()
			net.Loss(x, labels, true)
			net.Backward()
		}
	})
}

// BenchmarkBatchNormPlane times a training forward and backward pass of
// BatchNorm over ResNet-8's widest activation (8 images of 16 planes of
// 32×32): five passes over each plane, three of them float64 sums.
func BenchmarkBatchNormPlane(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm(16)
	x := tensor.New(8, 16, 32, 32).RandNormal(rng, 0, 1)
	grad := tensor.New(8, 16, 32, 32).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Forward(x, true)
		bn.Backward(grad)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Size()), "ns/value")
}

// BenchmarkSmallMLPIteration measures the cheapest model used in the
// end-to-end protocol tests.
func BenchmarkSmallMLPIteration(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := SmallMLP(rng, 32, 64, 8)
	x := tensor.New(16, 32).RandNormal(rng, 0, 1)
	labels := make([]int, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.Loss(x, labels, true)
		net.Backward()
	}
}

// BenchmarkParameterFlattening measures copying the parameters and SetParams, the worker's
// cost of installing pulled weights.
func BenchmarkParameterFlattening(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net := DownsizedAlexNet(rng, 16, 10)
	params := cloneParams(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.SetParams(params); err != nil {
			b.Fatal(err)
		}
	}
}
