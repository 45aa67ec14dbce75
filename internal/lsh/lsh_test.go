package lsh

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// setProcs sets GOMAXPROCS — the only parallelism dial since
// internal/par — for the rest of the test, restored on cleanup.
func setProcs(t testing.TB, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// signaturesOf hashes every row of pts with f, one row at a time.
func signaturesOf(f Family, pts *matrix.Dense) []uint64 {
	sigs := make([]uint64, pts.Rows())
	for i := range sigs {
		sigs[i] = f.Signature(pts.Row(i))
	}
	return sigs
}

func twoBlobs(rng *rand.Rand, perBlob, d int) *matrix.Dense {
	pts := matrix.NewDense(2*perBlob, d)
	for i := 0; i < perBlob; i++ {
		for j := 0; j < d; j++ {
			pts.Set(i, j, 0.1*rng.Float64())
			pts.Set(perBlob+i, j, 0.9+0.1*rng.Float64())
		}
	}
	return pts
}

func TestDefaultM(t *testing.T) {
	// M = ceil(log2(n)/2) - 1 per §5.4, clamped to at least 1.
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 1}, {1024, 4}, {4096, 5}, {1 << 20, 9}, {1 << 22, 10},
	}
	for _, c := range cases {
		if got := DefaultM(c.n); got != c.want {
			t.Errorf("DefaultM(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(matrix.NewDense(0, 0), Config{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	pts := matrix.NewDense(4, 2)
	if _, err := Fit(pts, Config{M: 65}); err == nil {
		t.Fatal("expected error for M > 64")
	}
	if _, err := Fit(pts, Config{M: -1}); err == nil {
		t.Fatal("expected error for negative M")
	}
	if _, err := Fit(pts, Config{Bins: 1}); err == nil {
		t.Fatal("expected error for Bins < 2")
	}
	if _, err := Fit(pts, Config{Policy: DimensionPolicy(99)}); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// TestNewHasherRebuildsFittedHasher: a worker's hasher, rebuilt from
// the shipped parameters, hashes every row as the fitted one does, and
// parameters that cannot be a hasher's are refused.
func TestNewHasherRebuildsFittedHasher(t *testing.T) {
	pts := twoBlobs(rand.New(rand.NewSource(3)), 40, 6)
	fitted, err := Fit(pts, Config{M: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewHasher(fitted.Dimensions(), fitted.Thresholds())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pts.Rows(); i++ {
		if got, want := rebuilt.Signature(pts.Row(i)), fitted.Signature(pts.Row(i)); got != want {
			t.Fatalf("row %d: rebuilt hasher signs %b, fitted %b", i, got, want)
		}
	}
	for name, c := range map[string]struct {
		dims       []int
		thresholds []float64
	}{
		"no dimensions":      {nil, nil},
		"length mismatch":    {[]int{0, 1}, []float64{0}},
		"negative dimension": {[]int{0, -1}, []float64{0, 0}},
		"too many bits":      {make([]int, MaxBits+1), make([]float64, MaxBits+1)},
	} {
		if _, err := NewHasher(c.dims, c.thresholds); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFitTopSpanPrefersWideDimensions(t *testing.T) {
	// Dimension 1 has span 10, dimension 0 has span 0.1: with M=1 the
	// hash must use dimension 1.
	pts, _ := matrix.FromRows([][]float64{
		{0.0, 0}, {0.1, 10}, {0.05, 5}, {0.02, 2},
	})
	h, err := Fit(pts, Config{M: 1, Policy: TopSpan})
	if err != nil {
		t.Fatal(err)
	}
	if h.Dimensions()[0] != 1 {
		t.Fatalf("TopSpan chose dimension %d, want 1", h.Dimensions()[0])
	}
}

func TestFitTopSpanWrapsWhenMExceedsD(t *testing.T) {
	pts, _ := matrix.FromRows([][]float64{{0, 0}, {1, 2}})
	h, err := Fit(pts, Config{M: 5, Policy: TopSpan})
	if err != nil {
		t.Fatal(err)
	}
	if h.Bits() != 5 {
		t.Fatalf("Bits = %d, want 5", h.Bits())
	}
	for _, dim := range h.Dimensions() {
		if dim < 0 || dim > 1 {
			t.Fatalf("dimension %d out of range", dim)
		}
	}
}

func TestSignatureSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := twoBlobs(rng, 50, 8)
	h, err := Fit(pts, Config{M: 4, Policy: TopSpan})
	if err != nil {
		t.Fatal(err)
	}
	sigs := signaturesOf(h, pts)
	// Every point in a blob must share its blob's signature, and the
	// two blobs must differ.
	for i := 1; i < 50; i++ {
		if sigs[i] != sigs[0] {
			t.Fatalf("blob 0 signatures differ: %b vs %b", sigs[i], sigs[0])
		}
		if sigs[50+i] != sigs[50] {
			t.Fatalf("blob 1 signatures differ")
		}
	}
	if sigs[0] == sigs[50] {
		t.Fatal("blobs must hash to different signatures")
	}
}

func TestSpanWeightedDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := twoBlobs(rng, 20, 6)
	h1, err := Fit(pts, Config{M: 4, Policy: SpanWeighted, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Fit(pts, Config{M: 4, Policy: SpanWeighted, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := h1.Dimensions(), h2.Dimensions()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("same seed must choose same dimensions")
		}
	}
}

func TestSpanWeightedSkewsTowardWideDimensions(t *testing.T) {
	// Build data where dim 0 has span 100 and dims 1..5 span 0.01: the
	// weighted policy should almost always pick dim 0.
	pts := matrix.NewDense(100, 6)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		pts.Set(i, 0, rng.Float64()*100)
		for j := 1; j < 6; j++ {
			pts.Set(i, j, rng.Float64()*0.01)
		}
	}
	h, err := Fit(pts, Config{M: 16, Policy: SpanWeighted, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	count0 := 0
	for _, d := range h.Dimensions() {
		if d == 0 {
			count0++
		}
	}
	if count0 < 14 {
		t.Fatalf("span-weighted picked dim 0 only %d/16 times", count0)
	}
}

func TestUniformPolicyCoversDimensions(t *testing.T) {
	pts := matrix.NewDense(10, 4)
	rng := rand.New(rand.NewSource(5))
	for i := range pts.Data() {
		pts.Data()[i] = rng.Float64()
	}
	h, err := Fit(pts, Config{M: 32, Policy: Uniform, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, d := range h.Dimensions() {
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("uniform policy used only %d distinct dimensions", len(seen))
	}
}

func TestConstantDimension(t *testing.T) {
	// A constant dataset must not crash; all points share one signature.
	pts := matrix.NewDense(8, 3)
	h, err := Fit(pts, Config{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	sigs := signaturesOf(h, pts)
	for _, s := range sigs {
		if s != sigs[0] {
			t.Fatal("constant data must share one signature")
		}
	}
}

func TestNearDuplicate(t *testing.T) {
	cases := []struct {
		a, b uint64
		want bool
	}{
		{0b1010, 0b1010, true},  // identical
		{0b1010, 0b1011, true},  // one bit
		{0b1010, 0b1001, false}, // two bits
		{0, 1 << 63, true},      // high bit
		{^uint64(0), 0, false},
	}
	for _, c := range cases {
		if got := NearDuplicate(c.a, c.b); got != c.want {
			t.Errorf("NearDuplicate(%b,%b) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHammingDistance(t *testing.T) {
	if HammingDistance(0b1100, 0b1010) != 2 {
		t.Fatal("HammingDistance(1100,1010) != 2")
	}
	if HammingDistance(7, 7) != 0 {
		t.Fatal("identical signatures must have distance 0")
	}
}

// Property: NearDuplicate agrees with HammingDistance <= 1.
func TestPropNearDuplicateMatchesHamming(t *testing.T) {
	f := func(a, b uint64) bool {
		return NearDuplicate(a, b) == (HammingDistance(a, b) <= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if TopSpan.String() != "top-span" || SpanWeighted.String() != "span-weighted" ||
		Uniform.String() != "uniform" {
		t.Fatal("policy names changed")
	}
	if DimensionPolicy(42).String() == "" {
		t.Fatal("unknown policy must still render")
	}
}

// TestSignaturesWorkerDeterminism: the ensemble's hash pass must
// produce, table by table, the exact slice a plain per-row loop
// produces, at every GOMAXPROCS, on an input large enough to cross the
// parallel cutoff.
func TestSignaturesWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := hashParallelCutoff + 513 // crosses the cutoff with a ragged tail block
	pts := matrix.NewDense(n, 8)
	for i := range pts.Data() {
		pts.Data()[i] = rng.NormFloat64()
	}
	e, err := FitEnsemble(pts, Config{M: 12, Policy: TopSpan, Seed: 1}, EnsembleConfig{Tables: 2})
	if err != nil {
		t.Fatal(err)
	}
	fams := e.Families()
	want := make([][]uint64, len(fams))
	for tbl, f := range fams {
		want[tbl] = signaturesOf(f, pts)
	}
	for _, procs := range []int{1, 2, 3, 8, 64} {
		setProcs(t, procs)
		got := e.Hash(pts)
		for tbl := range want {
			for i, w := range want[tbl] {
				if g := got.Table(tbl)[i]; g != w {
					t.Fatalf("GOMAXPROCS=%d table %d: signature[%d] = %x, serial %x", procs, tbl, i, g, w)
				}
			}
		}
	}
}
