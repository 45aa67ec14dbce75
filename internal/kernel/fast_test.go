package kernel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// randPoints builds an n x d matrix of standard normals.
func randPoints(n, d int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(n, d)
	data := m.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return m
}

// asGeneric strips the recognized type from a kernel so the engine
// takes the generic per-pair path with the same pairwise function.
func asGeneric(k Kernel) Kernel { return Func(k.Eval) }

// fastKernels are the recognized kernels the blocked engine accelerates.
func fastKernels() map[string]Kernel {
	return map[string]Kernel{
		"gaussian": NewGaussian(0.8),
	}
}

// TestFastGramMatchesGeneric sweeps dimensions through the unroll
// boundaries (1..65 crosses every 4-wide remainder case) and checks the
// blocked fast path against the generic per-pair path.
func TestFastGramMatchesGeneric(t *testing.T) {
	for name, k := range fastKernels() {
		for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 63, 64, 65} {
			pts := randPoints(40, d, int64(d)+7)
			got := Gram(pts, k)
			want := Gram(pts, asGeneric(k))
			if !matrix.Equal(got, want, 1e-12) {
				t.Fatalf("%s d=%d: fast and generic Gram differ", name, d)
			}
		}
	}
}

// TestFastGramBlockBoundaries sweeps the matrix size through the
// block-row boundaries, where edge blocks are smaller than blockRows.
func TestFastGramBlockBoundaries(t *testing.T) {
	for name, k := range fastKernels() {
		for _, n := range []int{1, 2, 63, 64, 65, 100, 129} {
			pts := randPoints(n, 9, int64(n))
			got := Gram(pts, k)
			want := Gram(pts, asGeneric(k))
			if !matrix.Equal(got, want, 1e-12) {
				t.Fatalf("%s n=%d: fast and generic Gram differ", name, n)
			}
			for i := 0; i < n; i++ {
				if !matrix.IsZero(got.At(i, i)) {
					t.Fatalf("%s n=%d: diagonal entry %d not zero", name, n, i)
				}
			}
		}
	}
}

// TestFastSubGramMatchesGeneric checks bucketed sub-Grams, including
// the empty and singleton buckets the LSH partition can produce.
func TestFastSubGramMatchesGeneric(t *testing.T) {
	pts := randPoints(120, 17, 3)
	rng := rand.New(rand.NewSource(4))
	buckets := [][]int{
		{},
		{5},
		{119, 0},
		rng.Perm(120)[:67], // crosses one block boundary
		rng.Perm(120),      // full permutation: every row, shuffled
	}
	for name, k := range fastKernels() {
		for bi, idxs := range buckets {
			got := SubGram(pts, idxs, k)
			want := SubGram(pts, idxs, asGeneric(k))
			if !matrix.Equal(got, want, 1e-12) {
				t.Fatalf("%s bucket %d (size %d): fast and generic SubGram differ", name, bi, len(idxs))
			}
			if got.Rows() != len(idxs) || got.Cols() != len(idxs) {
				t.Fatalf("%s bucket %d: got %dx%d", name, bi, got.Rows(), got.Cols())
			}
		}
	}
}

// TestGramParallelMatchesSerial forces the fan-out on (the ambient
// GOMAXPROCS may be 1) and requires bit-identical output: the
// deterministic block decomposition must make GOMAXPROCS unobservable.
// Run with -race this doubles as the engine's data-race check.
func TestGramParallelMatchesSerial(t *testing.T) {
	pts := randPoints(parallelCutoff+41, 12, 9)
	n := pts.Rows()
	for name, k := range fastKernels() {
		serial := matrix.NewDense(n, n)
		setProcs(t, 1)
		gramInto(serial, pts, nil, k)
		parallel := matrix.NewDense(n, n)
		setProcs(t, 4)
		gramInto(parallel, pts, nil, k)
		if !matrix.Equal(serial, parallel, 0) {
			t.Fatalf("%s: parallel Gram differs from serial", name)
		}
	}
	// Generic path, same contract.
	gk := asGeneric(NewGaussian(1.1))
	serial := matrix.NewDense(n, n)
	setProcs(t, 1)
	gramInto(serial, pts, nil, gk)
	parallel := matrix.NewDense(n, n)
	setProcs(t, 4)
	gramInto(parallel, pts, nil, gk)
	if !matrix.Equal(serial, parallel, 0) {
		t.Fatal("generic: parallel Gram differs from serial")
	}
}

// TestSubGramParallelMatchesSerial is the bucketed form of the worker
// determinism check, with indices forcing the gather path.
func TestSubGramParallelMatchesSerial(t *testing.T) {
	pts := randPoints(parallelCutoff+80, 10, 11)
	idxs := rand.New(rand.NewSource(12)).Perm(pts.Rows())[:parallelCutoff+10]
	for name, k := range fastKernels() {
		serial := matrix.NewDense(len(idxs), len(idxs))
		setProcs(t, 1)
		gramInto(serial, pts, idxs, k)
		parallel := matrix.NewDense(len(idxs), len(idxs))
		setProcs(t, 4)
		gramInto(parallel, pts, idxs, k)
		if !matrix.Equal(serial, parallel, 0) {
			t.Fatalf("%s: parallel SubGram differs from serial", name)
		}
	}
}

// referenceMedianSigma is the pre-engine implementation of MedianSigma
// (per-pair SqDist, full sort); the optimized version must reproduce
// its sigma for the same seed up to floating-point reassociation.
func referenceMedianSigma(points *matrix.Dense, sampleSize int, seed int64) float64 {
	n := points.Rows()
	if n < 2 {
		return 1
	}
	if sampleSize <= 0 {
		sampleSize = 256
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := sampleSize
	if max := n * (n - 1) / 2; pairs > max {
		pairs = max
	}
	var dists []float64
	for len(dists) < pairs {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		dists = append(dists, math.Sqrt(matrix.SqDist(points.Row(i), points.Row(j))))
	}
	sort.Float64s(dists)
	med := dists[len(dists)/2]
	if med <= 0 {
		return 1
	}
	return med
}

// TestDot4MatchesDot: MedianSigma's four-lane dot is the inner product
// to rounding, and rejects a length mismatch.
func TestDot4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64, 65} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		got, want := dot4(x, y), matrix.Dot(x, y)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("n=%d: dot4 = %v, Dot = %v", n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	dot4([]float64{1}, []float64{1, 2})
}

func TestMedianSigmaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pts := randPoints(90, 6, seed+100)
		got := MedianSigma(pts, 512, seed)
		want := referenceMedianSigma(pts, 512, seed)
		if !matrix.ApproxEqual(got, want, 1e-9*(1+want)) {
			t.Fatalf("seed %d: MedianSigma %v, reference %v", seed, got, want)
		}
	}
	// Tiny datasets keep their documented fallback.
	if got := MedianSigma(randPoints(1, 3, 1), 64, 0); !matrix.ApproxEqual(got, 1, 0) {
		t.Fatalf("n=1 sigma = %v, want 1", got)
	}
}

// TestRecognizedEvalMatchesFunc pins the Eval of the recognized kernel
// to the plain Func form, which older call sites still construct.
func TestRecognizedEvalMatchesFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := make([]float64, 15)
	y := make([]float64, 15)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	if g, f := NewGaussian(0.6).Eval(x, y), Gaussian(0.6)(x, y); !matrix.ApproxEqual(g, f, 0) {
		t.Fatalf("gaussian Eval %v != Func %v", g, f)
	}
}

func TestNewGaussianRejectsBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGaussian(0) did not panic")
		}
	}()
	NewGaussian(0)
}

// TestSubGramPackedMatchesSubGram: the packed fill is SubGram's upper
// triangle bit for bit — zero diagonal included — for the recognized
// Gaussian and a plain Func, across the block and fan-out boundaries, at
// GOMAXPROCS 1 and 4; and a dirty, oversized scratch is fully
// overwritten.
func TestSubGramPackedMatchesSubGram(t *testing.T) {
	pts := randPoints(parallelCutoff+80, 10, 31)
	perm := rand.New(rand.NewSource(32)).Perm(pts.Rows())
	kernels := fastKernels()
	kernels["func"] = Func(func(x, y []float64) float64 { return matrix.Dot(x, y) })
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		for name, k := range kernels {
			for _, n := range []int{0, 1, 2, 63, 64, 65, parallelCutoff + 10} {
				idxs := perm[:n]
				want := SubGram(pts, idxs, k)
				scratch := make([]float64, matrix.PackedLen(n)+7)
				for i := range scratch {
					scratch[i] = math.NaN()
				}
				sub, err := SubGramPacked(pts, idxs, k, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if sub.N() != n {
					t.Fatalf("%s n=%d: view of %d", name, n, sub.N())
				}
				for i := 0; i < n; i++ {
					for tt, v := range sub.Row(i) {
						if w := want.At(i, i+tt); math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("%s n=%d procs=%d: (%d,%d) packed %v, SubGram %v", name, n, procs, i, i+tt, v, w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSubGramPacked fills the packed sub-Gram of a 3 086-row
// bucket (mix-inproc's largest, 32 dims), reporting the bytes it holds.
func BenchmarkSubGramPacked(b *testing.B) {
	const n = 3086
	pts := randPoints(n, 32, 5)
	idxs := rand.New(rand.NewSource(6)).Perm(n)
	kf := NewGaussian(4)
	var scratch []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubGramPacked(pts, idxs, kf, &scratch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*cap(scratch)), "held-B/op")
}

// BenchmarkSubGramSparse fills the ε-thresholded sub-Gram of 2 048
// random 16-dimensional rows at σ = 1, ε = 1e-4 — about a tenth of the
// pairs survive — reporting the fill it emits.
func BenchmarkSubGramSparse(b *testing.B) {
	const n = 2048
	pts := randPoints(n, 16, 7)
	idxs := rand.New(rand.NewSource(8)).Perm(n)
	kf := NewGaussian(1)
	var fill float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr, err := SubGramSparse(pts, idxs, kf, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		fill = csr.Fill()
	}
	b.ReportMetric(fill, "fill")
}
