package compress

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dssp/internal/tensor"
)

// randTensor returns a tensor of the given shape with values in [-scale, scale).
func randTensor(rng *rand.Rand, scale float64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	data := t.Data()
	for i := range data {
		data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return t
}

func TestConfigNormalizeValidateEqual(t *testing.T) {
	if got := (Config{}).Normalized(); got.Codec != None {
		t.Fatalf("zero config normalizes to %q, want %q", got.Codec, None)
	}
	if got := (Config{Codec: TopK}).Normalized(); got.TopK != DefaultTopK {
		t.Fatalf("topk fraction defaults to %g, want %g", got.TopK, DefaultTopK)
	}
	if got := (Config{Codec: Int8, TopK: 0.5}).Normalized(); got.TopK != 0 {
		t.Fatalf("non-topk codec keeps fraction %g, want 0", got.TopK)
	}
	for _, cfg := range []Config{
		{}, {Codec: None}, {Codec: FP16}, {Codec: Int8}, {Codec: TopK, TopK: 0.25},
		{Codec: FP16, Pull: true}, {Codec: Int8, Pull: true},
	} {
		if err := cfg.Validate(false); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", cfg, err)
		}
	}
	for _, cfg := range []Config{
		{Codec: "gzip"},
		{Codec: TopK, TopK: 1.5},
		{Codec: TopK, TopK: -0.1},
		{Codec: TopK, Pull: true},
		{Codec: None, Pull: true},
	} {
		if err := cfg.Validate(false); err == nil {
			t.Errorf("Validate(%v) = nil, want error", cfg)
		}
	}
	if err := (Config{Codec: Auto}).Validate(false); err == nil {
		t.Error("server-side Validate accepts auto")
	}
	if err := (Config{Codec: Auto, Pull: true}).Validate(true); err != nil {
		t.Errorf("client-side Validate rejects auto: %v", err)
	}
	if !(Config{}).Equal(Config{Codec: None}) {
		t.Error("zero config and explicit none are not Equal")
	}
	if !(Config{Codec: TopK}).Equal(Config{Codec: TopK, TopK: DefaultTopK}) {
		t.Error("defaulted topk fraction breaks Equal")
	}
	if (Config{Codec: TopK, TopK: 0.1}).Equal(Config{Codec: TopK, TopK: 0.2}) {
		t.Error("different topk fractions compare Equal")
	}
	if (Config{Codec: FP16}).Equal(Config{Codec: FP16, Pull: true}) {
		t.Error("pull flag ignored by Equal")
	}
}

func TestF16ExhaustiveRoundTrip(t *testing.T) {
	// Every non-NaN half value must survive half→float32→half unchanged:
	// float32 represents all halves exactly and the conversion rounds to
	// nearest, so the round trip is the identity.
	for h := 0; h < 1<<16; h++ {
		f := halfTable()[h]
		if math.IsNaN(float64(f)) {
			continue
		}
		if back := uint16(floatToHalf(math.Float32bits(f))); back != uint16(h) {
			t.Fatalf("half %#04x → %g → %#04x", h, f, back)
		}
	}
}

func TestF16ConversionErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		v := float32((rng.Float64()*2 - 1) * math.Pow(10, rng.Float64()*8-4))
		got := halfTable()[uint16(floatToHalf(math.Float32bits(v)))]
		// Relative error ≤ 2^-11 for normal halves, plus the subnormal
		// absolute quantum 2^-25.
		bound := math.Abs(float64(v))/2048 + math.Pow(2, -25)
		if diff := math.Abs(float64(got - v)); diff > bound {
			t.Fatalf("fp16(%g) = %g, error %g exceeds %g", v, got, diff, bound)
		}
	}
}

func TestInt8RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		orig := randTensor(rng, 0.5, 64, 9)
		var maxAbs float64
		for _, v := range orig.Data() {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		dec, err := Decompress(Pack([]*tensor.Tensor{orig}, Config{Codec: Int8})[0])
		if err != nil {
			t.Fatal(err)
		}
		// Uniform quantization with scale maxAbs/127 is off by at most half a
		// step per value.
		bound := maxAbs/127/2 + 1e-7
		for i, v := range orig.Data() {
			if diff := math.Abs(float64(dec.Data()[i] - v)); diff > bound {
				t.Fatalf("int8 value %d: %g → %g, error %g exceeds %g", i, v, dec.Data()[i], diff, bound)
			}
		}
	}
}

func TestInt8AllZeroTensor(t *testing.T) {
	dec, err := Decompress(Pack([]*tensor.Tensor{tensor.New(4, 4)}, Config{Codec: Int8})[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec.Data() {
		if v != 0 {
			t.Fatalf("zero tensor decoded to %v", dec.Data())
		}
	}
}

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		orig := randTensor(rng, 1.0, 37, 11)
		n := orig.Size()
		frac := []float64{0.01, 0.1, 0.33, 1.0}[trial%4]
		k := int(math.Ceil(frac * float64(n)))

		p := packTopK(orig.Clone(), frac)
		if got := len(p.Payload) / 8; got != k {
			t.Fatalf("topk(%g) of %d values kept %d entries, want %d", frac, n, got, k)
		}
		dec, err := Decompress(p)
		if err != nil {
			t.Fatal(err)
		}

		// Reference selection: sort magnitudes descending; the kept entries
		// must decode exactly and their magnitude multiset must equal the
		// reference's top k.
		mags := make([]float64, n)
		for i, v := range orig.Data() {
			mags[i] = math.Abs(float64(v))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
		var kept []float64
		for i, v := range dec.Data() {
			if v != 0 {
				if v != orig.Data()[i] {
					t.Fatalf("kept entry %d decoded to %g, want exact %g", i, v, orig.Data()[i])
				}
				kept = append(kept, math.Abs(float64(v)))
			} else if orig.Data()[i] != 0 && math.Abs(float64(orig.Data()[i])) > mags[k-1] {
				t.Fatalf("entry %d (|%g| > threshold %g) was dropped", i, orig.Data()[i], mags[k-1])
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(kept)))
		// Zero-valued originals among the top k decode to zero and are
		// indistinguishable from dropped entries, so compare only the nonzero
		// prefix.
		for i, m := range kept {
			if m != mags[i] {
				t.Fatalf("kept magnitude %d is %g, reference %g", i, m, mags[i])
			}
		}
	}
}

func TestErrorFeedbackResidualInvariant(t *testing.T) {
	// Over any prefix of pushes, (sum of decoded payloads) + residual ==
	// (sum of raw gradients): compression delays gradient mass, it never
	// loses it.
	rng := rand.New(rand.NewSource(17))
	for _, cfg := range []Config{
		{Codec: FP16},
		{Codec: Int8},
		{Codec: TopK, TopK: 0.05},
	} {
		c, err := NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sumGrads := tensor.New(23, 7)
		sumDecoded := tensor.New(23, 7)
		for step := 0; step < 12; step++ {
			g := randTensor(rng, 0.1, 23, 7)
			sumGrads.Add(g)
			packed := c.Compress([]*tensor.Tensor{g})
			dec, err := Decompress(packed[0])
			if err != nil {
				t.Fatal(err)
			}
			sumDecoded.Add(dec)

			recon := sumDecoded.Clone().Add(c.residual[0])
			if !recon.ApproxEqual(sumGrads, 1e-3) {
				t.Fatalf("%s step %d: decoded+residual drifted from gradient sum", cfg, step)
			}
		}
		// The lossy codecs must actually have transmitted most of the mass.
		if norm := sumDecoded.L2Norm(); norm == 0 {
			t.Fatalf("%s: nothing transmitted", cfg)
		}
	}
}

func TestErrorFeedbackEventuallyTransmitsSmallEntries(t *testing.T) {
	// topk with k=1 on a gradient whose first coordinate dominates: the
	// small second coordinate must still arrive through the residual.
	c, err := NewCompressor(Config{Codec: TopK, TopK: 1e-9}) // k = ceil(tiny·n) = 1
	if err != nil {
		t.Fatal(err)
	}
	total := tensor.New(2)
	for step := 0; step < 30; step++ {
		g := tensor.FromSlice([]float32{1.0, 0.1}, 2)
		dec, err := Decompress(c.Compress([]*tensor.Tensor{g})[0])
		if err != nil {
			t.Fatal(err)
		}
		total.Add(dec)
	}
	if total.Data()[1] == 0 {
		t.Fatal("small coordinate never transmitted despite error feedback")
	}
}

func TestTopKSurvivesNaNAndDegenerateTensors(t *testing.T) {
	// A diverged run can push NaN gradients; topk must not panic (an
	// unordered pivot would run the quickselect scans out of bounds) and
	// must still emit exactly k index/value pairs.
	nan := float32(math.NaN())
	cases := []*tensor.Tensor{
		tensor.FromSlice([]float32{nan, 1, 2, 3, 4, 5, 6, 7}, 8),
		tensor.FromSlice([]float32{nan, nan, nan, nan}, 4),
		tensor.New(6), // all zero
		tensor.FromSlice([]float32{0, 0, 5, 0}, 4),
	}
	for i, tc := range cases {
		n := tc.Size()
		p := packTopK(tc.Clone(), 0.5)
		k := int(math.Ceil(0.5 * float64(n)))
		if got := len(p.Payload) / 8; got != k {
			t.Errorf("case %d: payload carries %d pairs, want %d", i, got, k)
		}
		if _, err := Decompress(p); err != nil {
			t.Errorf("case %d: decode failed: %v", i, err)
		}
	}
}

func TestCompressorRejectsNonLossyCodecs(t *testing.T) {
	for _, cfg := range []Config{{}, {Codec: None}, {Codec: Auto}} {
		if _, err := NewCompressor(cfg); err == nil {
			t.Errorf("NewCompressor(%v) succeeded, want error", cfg)
		}
	}
}

func TestPackIsStatelessAndNonMutating(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := randTensor(rng, 1.0, 16, 16)
	snapshot := orig.Clone()
	for _, cfg := range []Config{{Codec: FP16}, {Codec: Int8}} {
		p := Pack([]*tensor.Tensor{orig}, cfg)
		if !orig.ApproxEqual(snapshot, 0) {
			t.Fatalf("%s: Pack mutated its input", cfg)
		}
		dec, err := DecompressAll(p)
		if err != nil {
			t.Fatal(err)
		}
		if !dec[0].ApproxEqual(orig, 0.01) {
			t.Fatalf("%s: packed weights drifted beyond tolerance", cfg)
		}
	}
}

func TestDecompressRejectsCorruptPayloads(t *testing.T) {
	good := packTopK(tensor.FromSlice([]float32{3, 1, 2}, 3), 0.5)
	cases := []Packed{
		{Scheme: 99, Shape: []int{3}, Payload: nil},
		{Scheme: SchemeF16, Shape: []int{3}, Payload: make([]byte, 5)},
		{Scheme: SchemeQ8, Shape: []int{3}, Payload: make([]byte, 4)},
		{Scheme: SchemeTopK, Shape: []int{3}, Payload: make([]byte, 7)},
		{Scheme: SchemeTopK, Shape: []int{-1}, Payload: nil},
		{Scheme: SchemeTopK, Shape: []int{3}, Payload: append([]byte{255, 255, 255, 255}, good.Payload[4:8]...)},
		{Scheme: SchemeTopK, Shape: []int{1}, Payload: make([]byte, 16)},
	}
	for i, p := range cases {
		if _, err := Decompress(p); err == nil {
			t.Errorf("case %d: corrupt payload decoded without error", i)
		}
	}
}

func TestQuickselectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
			if rng.Intn(4) == 0 && i > 0 {
				vals[i] = vals[rng.Intn(i)] // inject duplicates
			}
		}
		k := 1 + rng.Intn(n)
		got := kthLargestMagnitude(vals, k)

		ref := make([]float64, n)
		for i, v := range vals {
			ref[i] = math.Abs(float64(v))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ref)))
		if float64(got) != ref[k-1] {
			t.Fatalf("kthLargestMagnitude(n=%d, k=%d) = %g, want %g", n, k, got, ref[k-1])
		}
	}
}
