package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapesAndSize(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{[]int{3}, 3},
		{[]int{2, 4}, 8},
		{[]int{2, 3, 4}, 24},
		{nil, 1},
	}
	for _, tc := range cases {
		tt := New(tc.shape...)
		if tt.Size() != tc.size {
			t.Errorf("New(%v).Size() = %d, want %d", tc.shape, tt.Size(), tc.size)
		}
		if tt.Dims() != len(tc.shape) {
			t.Errorf("New(%v).Dims() = %d, want %d", tc.shape, tt.Dims(), len(tc.shape))
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(3, 0)
}

func TestFromSliceAndAtSet(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	m.Set(42, 0, 1)
	if got := m.At(0, 1); got != 42 {
		t.Errorf("after Set, At(0,1) = %v, want 42", got)
	}
	if got := m.Dim(1); got != 3 {
		t.Errorf("Dim(1) = %d, want 3", got)
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(99, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
	if !a.SameShape(b) {
		t.Fatal("Clone changed the shape")
	}
}

func TestElementwiseArithmetic(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)

	sum := a.Clone().Add(b)
	want := []float32{11, 22, 33, 44}
	for i, v := range sum.Data() {
		if v != want[i] {
			t.Errorf("Add[%d] = %v, want %v", i, v, want[i])
		}
	}

	diff := b.Clone().Sub(a)
	wantDiff := []float32{9, 18, 27, 36}
	for i, v := range diff.Data() {
		if v != wantDiff[i] {
			t.Errorf("Sub[%d] = %v, want %v", i, v, wantDiff[i])
		}
	}

	prod := a.Clone().Mul(b)
	wantProd := []float32{10, 40, 90, 160}
	for i, v := range prod.Data() {
		if v != wantProd[i] {
			t.Errorf("Mul[%d] = %v, want %v", i, v, wantProd[i])
		}
	}

	scaled := a.Clone().Scale(0.5)
	wantScaled := []float32{0.5, 1, 1.5, 2}
	for i, v := range scaled.Data() {
		if v != wantScaled[i] {
			t.Errorf("Scale[%d] = %v, want %v", i, v, wantScaled[i])
		}
	}

	axpy := a.Clone().AXPY(2, b)
	wantAXPY := []float32{21, 42, 63, 84}
	for i, v := range axpy.Data() {
		if v != wantAXPY[i] {
			t.Errorf("AXPY[%d] = %v, want %v", i, v, wantAXPY[i])
		}
	}
}

func TestArithmeticShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	New(2, 2).Add(New(4))
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3, -4}, 4)
	if got := a.Sum(); got != -2 {
		t.Errorf("Sum = %v, want -2", got)
	}
	if got := a.Mean(); got != -0.5 {
		t.Errorf("Mean = %v, want -0.5", got)
	}
	if got := a.L2Norm(); math.Abs(got-math.Sqrt(30)) > 1e-9 {
		t.Errorf("L2Norm = %v, want sqrt(30)", got)
	}
}

func TestZeroFill(t *testing.T) {
	a := Full(3, 2, 2)
	a.Fill(7)
	if a.Sum() != 28 {
		t.Fatalf("Fill(7) sum = %v, want 28", a.Sum())
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatalf("Zero() sum = %v, want 0", a.Sum())
	}
}

func TestMatMulSmallKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Errorf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dimension mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTransposeVariantsAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 6).RandNormal(rng, 0, 1)
	b := New(4, 5).RandNormal(rng, 0, 1)
	got := MatMulTransA(a, b) // aᵀ b : (6,5)
	want := MatMul(Transpose2D(a), b)
	if !got.ApproxEqual(want, 1e-5) {
		t.Error("MatMulTransA disagrees with explicit transpose")
	}

	c := New(5, 6).RandNormal(rng, 0, 1)
	d := New(7, 6).RandNormal(rng, 0, 1)
	got = MatMulTransB(c, d) // c dᵀ : (5,7)
	want = MatMul(c, Transpose2D(d))
	if !got.ApproxEqual(want, 1e-5) {
		t.Error("MatMulTransB disagrees with explicit transpose")
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := Transpose2D(a)
	if b.Dim(0) != 3 || b.Dim(1) != 2 {
		t.Fatalf("transpose shape = %v", b.Shape())
	}
	if b.At(2, 0) != 3 || b.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", b.Data())
	}
}

func TestRandomInitializersProduceReasonableStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := New(200, 200)

	n.RandNormal(rng, 0, 1)
	mean := float64(n.Mean())
	if math.Abs(mean) > 0.05 {
		t.Errorf("RandNormal mean = %v, want ~0", mean)
	}

	n.RandUniform(rng, -1, 1)
	lo, hi := float32(0), float32(0)
	for _, v := range n.Data() {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < -1 || hi >= 1 {
		t.Errorf("RandUniform out of range [%v,%v]", lo, hi)
	}

	n.XavierInit(rng, 100, 100)
	limit := float32(math.Sqrt(6.0 / 200.0))
	for _, v := range n.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}

	n.HeInit(rng, 128)
	std := math.Sqrt(2.0 / 128.0)
	var s float64
	for _, v := range n.Data() {
		s += float64(v) * float64(v)
	}
	got := math.Sqrt(s / float64(n.Size()))
	if got < 0.8*std || got > 1.2*std {
		t.Errorf("He init stddev = %v, want ~%v", got, std)
	}
}

func TestPropertyMatMulDistributesOverAddition(t *testing.T) {
	// (A+B)×C == A×C + B×C up to floating-point tolerance.
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(m, k).RandNormal(rng, 0, 1)
		c := New(k, n).RandNormal(rng, 0, 1)
		left := MatMul(a.Clone().Add(b), c)
		right := MatMul(a, c).Add(MatMul(b, c))
		return left.ApproxEqual(right, 1e-3)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
