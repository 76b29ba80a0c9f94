package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// Scalar reference implementations: the plain i-k-j loops the blocked
// kernels replaced. The property tests below hold the kernels to these —
// bit-identical where the kernel preserves evaluation order (MatMulTransB on
// the Go kernel path), tolerance-bounded where the k-sum is reassociated or
// fused (MatMul, MatMulTransA, and all three on the assembly path).

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.data[i*k+kk]
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[kk*n+j]
			}
		}
	}
	return out
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			av := a.data[kk*m+i]
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[kk*n+j]
			}
		}
	}
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for kk := 0; kk < k; kk++ {
				sum += a.data[i*k+kk] * b.data[j*k+kk]
			}
			out.data[i*n+j] = sum
		}
	}
	return out
}

// withinRelTol reports whether got matches want element-wise within a
// relative tolerance scaled by the magnitude of want.
func withinRelTol(got, want *Tensor, tol float64) bool {
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		diff := math.Abs(float64(g[i]) - float64(w[i]))
		if diff > tol*(1+math.Abs(float64(w[i]))) {
			return false
		}
	}
	return true
}

// forceParallelMatmul lowers the parallel threshold to zero and raises
// GOMAXPROCS so even tiny products exercise the worker-pool path, restoring
// both on cleanup.
func forceParallelMatmul(t *testing.T) {
	t.Helper()
	prevFlops := mmParallelMinFlops
	prevProcs := runtime.GOMAXPROCS(4)
	mmParallelMinFlops = 0
	t.Cleanup(func() {
		mmParallelMinFlops = prevFlops
		runtime.GOMAXPROCS(prevProcs)
	})
}

// randShapes draws matmul dimensions that cover the unroll tails: sizes
// below 4, exact multiples of 4, and off-by-one around the block edges.
func randShapes(rng *rand.Rand) (m, k, n int) {
	pick := func() int {
		switch rng.Intn(4) {
		case 0:
			return 1 + rng.Intn(4) // 1..4: below or at one unroll step
		case 1:
			return 4 * (1 + rng.Intn(8)) // exact multiples of 4
		default:
			return 1 + rng.Intn(40)
		}
	}
	return pick(), pick(), pick()
}

func TestMatMulMatchesScalarReference(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := randShapes(rng)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		return withinRelTol(MatMul(a, b), refMatMul(a, b), 1e-4)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransAMatchesScalarReference(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := randShapes(rng)
		a := New(k, m).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		return withinRelTol(MatMulTransA(a, b), refMatMulTransA(a, b), 1e-4)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransBBitIdenticalToScalarReference(t *testing.T) {
	// With the Go dot4, MatMulTransB keeps the scalar loop's per-output
	// accumulation order, so it must match the reference exactly, not just
	// within tolerance. The vector dot4 sums eight lanes apart; the next test
	// bounds it.
	if kernel != "go" {
		t.Skip("assembly dot4 reassociates the k-sum; exactness holds under -tags purego")
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := randShapes(rng)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(n, k).RandNormal(rng, 0, 1)
		return MatMulTransB(a, b).ApproxEqual(refMatMulTransB(a, b), 0)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransBMatchesScalarReference(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := randShapes(rng)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(n, k).RandNormal(rng, 0, 1)
		return withinRelTol(MatMulTransB(a, b), refMatMulTransB(a, b), 1e-4)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulIntoVariantsOverwriteDirtyDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		m, k, n := randShapes(rng)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		at := New(k, m).RandNormal(rng, 0, 1)

		dst := New(m, n).RandNormal(rng, 0, 9) // dirty: Into must overwrite
		if !MatMulInto(dst, a, b).ApproxEqual(MatMul(a, b), 0) {
			t.Fatalf("MatMulInto differs from MatMul at m=%d k=%d n=%d", m, k, n)
		}
		dst.RandNormal(rng, 0, 9)
		if !MatMulTransAInto(dst, at, b).ApproxEqual(MatMulTransA(at, b), 0) {
			t.Fatalf("MatMulTransAInto differs from MatMulTransA at m=%d k=%d n=%d", m, k, n)
		}
	}
}

func TestMatMulAccVariantsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		m, k, n := randShapes(rng)
		at := New(k, m).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		a := New(m, k).RandNormal(rng, 0, 1)
		bt := New(n, k).RandNormal(rng, 0, 1)
		base := New(m, n).RandNormal(rng, 0, 1)

		got := MatMulTransAAcc(base.Clone(), at, b)
		want := base.Clone().Add(MatMulTransA(at, b))
		if !withinRelTol(got, want, 1e-4) {
			t.Fatalf("MatMulTransAAcc != dst + MatMulTransA at m=%d k=%d n=%d", m, k, n)
		}
		got = MatMulTransBAcc(base.Clone(), a, bt)
		want = base.Clone().Add(MatMulTransB(a, bt))
		if !withinRelTol(got, want, 1e-4) {
			t.Fatalf("MatMulTransBAcc != dst + MatMulTransB at m=%d k=%d n=%d", m, k, n)
		}
	}
}

func TestParallelMatMulBitIdenticalToSerialKernel(t *testing.T) {
	// Each output row is computed start-to-finish by exactly one chunk, so
	// splitting rows across the pool must not change a single bit relative
	// to the serial kernel, regardless of how the rows get chunked.
	rng := rand.New(rand.NewSource(3))
	type product struct {
		name string
		run  func(a, b *Tensor) *Tensor
		mkA  func(m, k int) (int, int)
	}
	products := []product{
		{"MatMul", MatMul, func(m, k int) (int, int) { return m, k }},
		{"MatMulTransA", MatMulTransA, func(m, k int) (int, int) { return k, m }},
		{"MatMulTransB", nil, nil}, // handled below: b is (n,k)
	}
	for iter := 0; iter < 30; iter++ {
		m, k, n := 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(64)
		for _, p := range products {
			var a, b *Tensor
			if p.run != nil {
				r0, r1 := p.mkA(m, k)
				a = New(r0, r1).RandNormal(rng, 0, 1)
				b = New(k, n).RandNormal(rng, 0, 1)
			} else {
				a = New(m, k).RandNormal(rng, 0, 1)
				b = New(n, k).RandNormal(rng, 0, 1)
			}
			run := p.run
			if run == nil {
				run = MatMulTransB
			}
			serial := run(a, b)
			func() {
				prevFlops := mmParallelMinFlops
				prevProcs := runtime.GOMAXPROCS(4)
				mmParallelMinFlops = 0
				defer func() {
					mmParallelMinFlops = prevFlops
					runtime.GOMAXPROCS(prevProcs)
				}()
				if got := run(a, b); !got.ApproxEqual(serial, 0) {
					t.Fatalf("%s parallel result differs from serial at m=%d k=%d n=%d", p.name, m, k, n)
				}
			}()
		}
	}
}

func TestParallelMatMulMatchesReferenceUnderPool(t *testing.T) {
	forceParallelMatmul(t)
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		m, k, n := randShapes(rng)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		if !withinRelTol(MatMul(a, b), refMatMul(a, b), 1e-4) {
			t.Fatalf("parallel MatMul diverged at m=%d k=%d n=%d", m, k, n)
		}
	}
}

func TestConcurrentMatMulCallersShareThePool(t *testing.T) {
	// Several goroutines issuing parallel matmuls at once must not deadlock
	// (submission falls back inline under saturation) and must all produce
	// correct results.
	forceParallelMatmul(t)
	const callers = 8
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 20; iter++ {
				m, k, n := 1+rng.Intn(48), 1+rng.Intn(48), 1+rng.Intn(48)
				a := New(m, k).RandNormal(rng, 0, 1)
				b := New(k, n).RandNormal(rng, 0, 1)
				if !withinRelTol(MatMul(a, b), refMatMul(a, b), 1e-4) {
					errs <- errShared
					return
				}
			}
			errs <- nil
		}(int64(c))
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errShared = errorString("concurrent matmul produced a wrong result")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestSumIntoBitIdenticalToCopyAdd(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 + rng.Intn(7), 1 + rng.Intn(9)}
		count := 1 + rng.Intn(6)
		srcs := make([]*Tensor, count)
		for i := range srcs {
			srcs[i] = New(shape...).RandNormal(rng, 0, 1)
		}
		want := srcs[0].Clone()
		for _, s := range srcs[1:] {
			want.Add(s)
		}
		got := SumInto(New(shape...), srcs)
		return got.ApproxEqual(want, 0)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseKernelsBitIdenticalToScalarLoops(t *testing.T) {
	// The unrolled slice kernels keep per-element evaluation order, so they
	// must match the scalar loops exactly at every tail length.
	rng := rand.New(rand.NewSource(13))
	for length := 0; length < 19; length++ {
		mk := func() ([]float32, []float32) {
			a := make([]float32, length)
			b := make([]float32, length)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
				b[i] = float32(rng.NormFloat64())
			}
			return a, b
		}
		check := func(op string, got, want []float32) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s differs from scalar loop at len=%d index=%d", op, length, i)
				}
			}
		}

		d, s := mk()
		want := append([]float32(nil), d...)
		for i := range want {
			want[i] += s[i]
		}
		addSlice(d, s)
		check("addSlice", d, want)

		d, s = mk()
		want = append([]float32(nil), d...)
		for i := range want {
			want[i] -= s[i]
		}
		subSlice(d, s)
		check("subSlice", d, want)

		d, s = mk()
		want = append([]float32(nil), d...)
		for i := range want {
			want[i] += 0.37 * s[i]
		}
		axpySlice(0.37, s, d)
		check("axpySlice", d, want)

		d, _ = mk()
		want = append([]float32(nil), d...)
		for i := range want {
			want[i] *= -1.25
		}
		scaleSlice(-1.25, d)
		check("scaleSlice", d, want)
	}
}

func TestMatMulIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong destination shape")
		}
	}()
	MatMulInto(New(3, 3), New(2, 3), New(3, 4))
}

func TestSumIntoEmptySourcesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty sources")
		}
	}()
	SumInto(New(2, 2), nil)
}
