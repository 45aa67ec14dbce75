package spectral

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

// TestClusterBucketDenseDefaultIdentical: with sparse mode off the
// engine must reproduce the pre-engine dense sequence bit for bit —
// same labels, same eigenvalues — since default DASC configs route
// every bucket through here.
func TestClusterBucketDenseDefaultIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, _ := makeBlobs(rng, 4, 40, 8, 6, 0.3)
	indices := make([]int, pts.Rows())
	for i := range indices {
		indices[i] = i
	}
	kf := kernel.NewGaussian(1.5)

	// The pre-engine sequence: pooled sub-Gram, in-place Laplacian.
	var refBuf []float64
	sub, err := kernel.SubGramPooled(pts, indices, kf, &refBuf, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Cluster(sub, Config{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	var buf []float64
	got, stats, err := ClusterBucket(pts, indices, kf, EngineConfig{K: 4, Seed: 9}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	for i := range want.Eigenvalues {
		if got.Eigenvalues[i] != want.Eigenvalues[i] {
			t.Fatalf("eigenvalue[%d] differs: %v vs %v", i, got.Eigenvalues[i], want.Eigenvalues[i])
		}
	}
	if stats.Solver != SolverDenseLanczos {
		t.Fatalf("solver = %q (n=%d k=4)", stats.Solver, pts.Rows())
	}
	if stats.GramBytes != kernel.GramBytes(pts.Rows()) || stats.Fill != 1 {
		t.Fatalf("dense stats: %+v", stats)
	}
	if stats.Nanos <= 0 {
		t.Fatal("wall time not recorded")
	}
}

// TestClusterBucketPackedMatchesInPlace: the engine's packed solve and
// Cluster on the mirrored n x n sub-Gram share one normalization
// and one operator, so labels and eigenvalue bits agree on the Lanczos
// route and on the dense-eigen route (small n, and 3K ≥ n), at
// GOMAXPROCS 1 and 4 — and the engine's result does not depend on the
// thread count.
func TestClusterBucketPackedMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := makeBlobs(rng, 4, 45, 6, 5, 0.4)
	kf := kernel.NewGaussian(1.2)
	for _, tc := range []struct {
		n, k   int
		solver string
	}{
		{180, 4, SolverDenseLanczos},
		{60, 4, SolverDenseEigen},
		{150, 50, SolverDenseEigen},
	} {
		indices := rand.New(rand.NewSource(int64(tc.n))).Perm(pts.Rows())[:tc.n]
		var first *Result
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			want, err := Cluster(kernel.SubGram(pts, indices, kf), Config{K: tc.k, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			var buf []float64
			got, stats, err := ClusterBucket(pts, indices, kf, EngineConfig{K: tc.k, Seed: 3}, &buf)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Solver != tc.solver {
				t.Fatalf("n=%d k=%d: solver %q, want %q", tc.n, tc.k, stats.Solver, tc.solver)
			}
			if first == nil {
				first = got
			}
			for _, ref := range []*Result{want, first} {
				if !reflect.DeepEqual(got.Labels, ref.Labels) {
					t.Fatalf("n=%d k=%d procs=%d: labels differ", tc.n, tc.k, procs)
				}
				for i, v := range ref.Eigenvalues {
					if math.Float64bits(got.Eigenvalues[i]) != math.Float64bits(v) {
						t.Fatalf("n=%d k=%d procs=%d: eigenvalue %d = %v, want %v", tc.n, tc.k, procs, i, got.Eigenvalues[i], v)
					}
				}
			}
		}
	}
}

// TestClusterBucketSmallUsesDenseEigen: tiny buckets report the full
// reduction even when sparse mode is on (the policy gates on
// linalg.UsesLanczos).
func TestClusterBucketSmallUsesDenseEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := makeBlobs(rng, 2, 20, 4, 5, 0.2)
	indices := make([]int, pts.Rows())
	for i := range indices {
		indices[i] = i
	}
	var buf []float64
	cfg := EngineConfig{K: 2, Seed: 1, SparseCutoff: 8, Epsilon: 1e-3}
	_, stats, err := ClusterBucket(pts, indices, kernel.NewGaussian(1), cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver != SolverDenseEigen {
		t.Fatalf("solver = %q for n=40", stats.Solver)
	}
}

// TestClusterBucketSparsePath: a tight bandwidth on separated blobs
// drives fill below the ceiling, so the CSR solver runs, recovers the
// partition, and reports Gram storage far below the dense 4n².
func TestClusterBucketSparsePath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, truth := makeBlobs(rng, 4, 60, 8, 12, 0.3)
	n := pts.Rows()
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	kf := kernel.NewGaussian(1.0)
	var buf []float64
	cfg := EngineConfig{K: 4, Seed: 5, SparseCutoff: 128, Epsilon: 1e-4}
	res, stats, err := ClusterBucket(pts, indices, kf, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver != SolverSparseLanczos {
		t.Fatalf("solver = %q fill = %v", stats.Solver, stats.Fill)
	}
	if stats.Fill <= 0 || stats.Fill > MaxSparseFill {
		t.Fatalf("fill = %v", stats.Fill)
	}
	if stats.GramBytes >= kernel.GramBytes(n) {
		t.Fatalf("sparse GramBytes %d not below dense %d", stats.GramBytes, kernel.GramBytes(n))
	}
	if !sameParition(truth, res.Labels) {
		t.Fatal("sparse solver must still recover the separated blobs")
	}
	if buf != nil {
		t.Fatal("sparse path must not touch the dense scratch")
	}
}

// TestClusterBucketHighFillSolvesPacked: a wide bandwidth keeps nearly
// every entry of the ε-cut, so the sparse-mode bucket takes the exact
// packed solve of sparse mode off: the same labels and eigenvalue bits,
// Fill 1, and a scratch grown only to the packed triangle.
func TestClusterBucketHighFillSolvesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := makeBlobs(rng, 4, 50, 6, 3, 0.4)
	n := pts.Rows()
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	kf := kernel.NewGaussian(20) // everything similar: fill ~ 1
	csr, err := kernel.SubGramSparse(pts, indices, kf, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if csr.Fill() <= MaxSparseFill {
		t.Fatalf("fixture ε-cut fill %v should exceed the sparse ceiling", csr.Fill())
	}
	var offBuf, onBuf []float64
	want, _, err := ClusterBucket(pts, indices, kf, EngineConfig{K: 4, Seed: 5}, &offBuf)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ClusterBucket(pts, indices, kf, EngineConfig{K: 4, Seed: 5, SparseCutoff: 128, Epsilon: 1e-4}, &onBuf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver != SolverDenseLanczos || stats.Fill != 1 || stats.GramBytes != kernel.GramBytes(n) {
		t.Fatalf("stats %+v, want the dense-lanczos solve at fill 1", stats)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatal("labels differ from the sparse-off solve")
	}
	for i, v := range want.Eigenvalues {
		if math.Float64bits(got.Eigenvalues[i]) != math.Float64bits(v) {
			t.Fatalf("eigenvalue %d = %v, sparse off %v", i, got.Eigenvalues[i], v)
		}
	}
	if cap(onBuf) != matrix.PackedLen(n) {
		t.Fatalf("scratch grew to %d float64s, the packed triangle is %d", cap(onBuf), matrix.PackedLen(n))
	}
}

// TestSparseDenseSolversAgree is the ISSUE's property test: at ε = 0
// the thresholded CSR holds every entry (fill = 1 off-diagonal), so
// the ClusterSparse-routed Lanczos and the dense TopKEigenSym path see
// the same similarity structure and must produce matching top-k
// eigenvalues and identical labels. n and k are chosen so the dense
// policy also runs Lanczos from seed 0; Seed = 0 aligns the sparse
// start vector with it.
func TestSparseDenseSolversAgree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		// Unequal blob sizes keep the spectrum non-degenerate.
		pts, _ := makeBlobs(rng, 4, 50, 8, 8, 0.4)
		n := pts.Rows()
		indices := make([]int, n)
		for i := range indices {
			indices[i] = i
		}
		const k = 4
		kf := kernel.NewGaussian(1.5)

		dense := kernel.SubGram(pts, indices, kf)
		dres, err := Cluster(dense, Config{K: k, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		csr, err := kernel.SubGramSparse(pts, indices, kf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if csr.NNZ() != n*(n-1) {
			t.Fatalf("eps=0 must keep every off-diagonal entry, nnz=%d", csr.NNZ())
		}
		sres, err := ClusterSparse(csr, Config{K: k, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if math.Abs(dres.Eigenvalues[i]-sres.Eigenvalues[i]) > 1e-8 {
				t.Fatalf("seed %d eigenvalue %d: dense %v sparse %v",
					seed, i, dres.Eigenvalues[i], sres.Eigenvalues[i])
			}
		}
		for i := range dres.Labels {
			if dres.Labels[i] != sres.Labels[i] {
				t.Fatalf("seed %d label[%d]: dense %d sparse %d", seed, i, dres.Labels[i], sres.Labels[i])
			}
		}
	}
}

// TestClusterBucketWorkerDeterminism: the engine's labels must be
// bitwise identical at GOMAXPROCS=1 and the ambient worker count, in
// both dense and sparse modes.
func TestClusterBucketWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, _ := makeBlobs(rng, 4, 60, 8, 10, 0.3)
	indices := make([]int, pts.Rows())
	for i := range indices {
		indices[i] = i
	}
	kf := kernel.NewGaussian(1.0)
	for _, cfg := range []EngineConfig{
		{K: 4, Seed: 7},
		{K: 4, Seed: 7, SparseCutoff: 64, Epsilon: 1e-4},
	} {
		var buf1 []float64
		base, baseStats, err := ClusterBucket(pts, indices, kf, cfg, &buf1)
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(1)
		var buf2 []float64
		serial, serialStats, err := ClusterBucket(pts, indices, kf, cfg, &buf2)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if baseStats.Solver != serialStats.Solver || baseStats.NNZ != serialStats.NNZ {
			t.Fatalf("policy changed with workers: %+v vs %+v", baseStats, serialStats)
		}
		for i := range base.Labels {
			if base.Labels[i] != serial.Labels[i] {
				t.Fatalf("solver %s label[%d]: %d vs %d", baseStats.Solver, i, base.Labels[i], serial.Labels[i])
			}
		}
	}
}

func BenchmarkBucketSolveDense(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pts, _ := makeBlobs(rng, 8, 128, 16, 14, 0.3)
	indices := make([]int, pts.Rows())
	for i := range indices {
		indices[i] = i
	}
	kf := kernel.NewGaussian(1.0)
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ClusterBucket(pts, indices, kf, EngineConfig{K: 8, Seed: 1}, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBucketSolveSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pts, _ := makeBlobs(rng, 8, 128, 16, 14, 0.3)
	indices := make([]int, pts.Rows())
	for i := range indices {
		indices[i] = i
	}
	kf := kernel.NewGaussian(1.0)
	cfg := EngineConfig{K: 8, Seed: 1, SparseCutoff: 256, Epsilon: 1e-4}
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ClusterBucket(pts, indices, kf, cfg, &buf); err != nil {
			b.Fatal(err)
		}
	}
}
