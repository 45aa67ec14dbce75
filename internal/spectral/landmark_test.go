package spectral

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/matrix"
)

// TestLandmarksGate pins the embed family's route rule: a bucket the
// embed policy claims takes min(ni, max(4·K, Dim/2)) landmarks when
// 4·K ≤ Dim, and the random Fourier feature solve (0) otherwise.
func TestLandmarksGate(t *testing.T) {
	e64, err := embed.NewRFF(4, 64, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  EngineConfig
		ni   int
		want int
	}{
		{EngineConfig{K: 4, Embedder: e64, EmbedCutoff: 100}, 320, 32},
		{EngineConfig{K: 10, Embedder: e64, EmbedCutoff: 100}, 20471, 40},
		{EngineConfig{K: 16, Embedder: e64, EmbedCutoff: 100}, 5000, 64},
		{EngineConfig{K: 17, Embedder: e64, EmbedCutoff: 100}, 5000, 0}, // 4·K > Dim: RFF
		{EngineConfig{K: 4, Embedder: e64, EmbedCutoff: 10}, 20, 20},    // m never above ni
		{EngineConfig{K: 4, Embedder: e64, EmbedCutoff: 100}, 99, 0},    // below the cutoff
		{EngineConfig{K: 20, Embedder: e64, EmbedCutoff: 10}, 20, 0},    // K == ni: exact path
		{EngineConfig{K: 4, EmbedCutoff: 100}, 320, 0},                  // no feature map
		{EngineConfig{K: 4, Embedder: e64}, 320, 0},                     // embed mode off
	} {
		if got := tc.cfg.Landmarks(tc.ni); got != tc.want {
			t.Errorf("K=%d cutoff=%d ni=%d: %d landmarks, want %d", tc.cfg.K, tc.cfg.EmbedCutoff, tc.ni, got, tc.want)
		}
		if tc.want > 0 && !tc.cfg.Embeds(tc.ni) {
			t.Errorf("K=%d ni=%d: landmarks outside the embed gate", tc.cfg.K, tc.ni)
		}
	}
}

// TestClusterBucketLandmarkPolicy is TestClusterBucketEmbeddedPolicy's
// twin for a bucket whose 4·K fits the feature map's width: it takes
// the landmark solver, reports m-sized stats, recovers well-separated
// blobs, and buckets below the cutoff are untouched.
func TestClusterBucketLandmarkPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts, truth := makeBlobs(rng, 4, 80, 8, 8, 0.3)
	n := pts.Rows()
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	kf := kernel.NewGaussian(1.5)
	e, err := embed.NewRFF(8, 64, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}

	var buf []float64
	cfg := EngineConfig{K: 4, Seed: 9, Embedder: e, EmbedCutoff: 256} // m = max(16, 32)
	res, stats, err := ClusterBucket(pts, indices, kf, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver != SolverLandmark {
		t.Fatalf("solver = %q, want %q", stats.Solver, SolverLandmark)
	}
	if stats.NNZ != int64(n)*32 || stats.GramBytes != embed.Bytes(n, 32) {
		t.Fatalf("landmark stats: %+v", stats)
	}
	if acc := embeddedAccuracy(res.Labels, truth, 4); acc < 0.95 {
		t.Fatalf("landmark solve accuracy %v on separated blobs", acc)
	}

	small := indices[:100]
	_, stats, err = ClusterBucket(pts, small, kf, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver == SolverLandmark || stats.Solver == SolverEmbedded {
		t.Fatalf("bucket of 100 took the embed family at cutoff 256 (solver %q)", stats.Solver)
	}
}

// TestClusterBucketLandmarkMatchesRows is
// TestClusterBucketEmbeddedMatchesRowsHalf's twin: the engine's landmark
// solve of a scattered bucket gives bitwise the labels and inertia of
// ClusterLandmarkRows on the gathered rows and their fitted landmarks, at GOMAXPROCS 1 and 4 (the
// bucket is large enough for the cross block to fan out).
func TestClusterBucketLandmarkMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := makeBlobs(rng, 3, 240, 6, 7, 0.4)
	indices := rand.New(rand.NewSource(5)).Perm(pts.Rows())[:600]
	kf := kernel.NewGaussian(1.2)
	e, err := embed.NewRFF(pts.Cols(), 16, 1.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EngineConfig{K: 3, Seed: 41, Embedder: e, EmbedCutoff: 16}
	m := cfg.Landmarks(len(indices))
	if m != 12 {
		t.Fatalf("fixture fits %d landmarks, want 12", m)
	}
	rows := matrix.NewDense(len(indices), pts.Cols())
	matrix.GatherRows(rows.Data(), pts, indices)

	var first *Result
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var buf, rowsBuf []float64
		engine, stats, err := ClusterBucket(pts, indices, kf, cfg, &buf)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		lm, err := fitLandmarks(rows, m, cfg.Seed^landmarkSalt)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		byHand, err := ClusterLandmarkRows(rows, lm, kf, cfg.K, cfg.Seed, &rowsBuf)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Solver != SolverLandmark {
			t.Fatalf("solver = %q", stats.Solver)
		}
		if !slices.Equal(engine.Labels, byHand.Labels) || engine.Inertia != byHand.Inertia {
			t.Fatalf("GOMAXPROCS=%d: engine and ClusterLandmarkRows differ (inertia %v vs %v)", procs, engine.Inertia, byHand.Inertia)
		}
		if first == nil {
			first = engine
		} else if !slices.Equal(first.Labels, engine.Labels) || first.Inertia != engine.Inertia {
			t.Fatalf("labels or inertia depend on GOMAXPROCS")
		}
	}
}

// TestClusterLandmarkRowsCoincident: a bucket of identical rows has a
// rank-one landmark block, whose one-column embedding normalises to a
// constant; the routine fails it (the solve stage's k-means fallback
// takes such a bucket) instead of returning a clustering of nothing.
func TestClusterLandmarkRowsCoincident(t *testing.T) {
	rows := matrix.NewDense(300, 4)
	for i := 0; i < rows.Rows(); i++ {
		copy(rows.Row(i), []float64{0.25, 0.5, 0.75, 1})
	}
	var buf []float64
	lm, err := matrix.NewDenseData(32, 4, rows.Data()[:32*4])
	if err != nil {
		t.Fatal(err)
	}
	_, err = ClusterLandmarkRows(rows, lm, kernel.NewGaussian(1), 3, 1, &buf)
	if !errors.Is(err, errLandmarkRank) {
		t.Fatalf("coincident rows: err = %v, want errLandmarkRank", err)
	}
	e, err := embed.NewRFF(4, 64, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int, rows.Rows())
	for i := range indices {
		indices[i] = i
	}
	_, stats, err := ClusterBucket(rows, indices, kernel.NewGaussian(1), EngineConfig{K: 3, Seed: 1, Embedder: e, EmbedCutoff: 100}, &buf)
	if err == nil || stats.Solver != SolverLandmark || stats.GramBytes != embed.Bytes(300, 32) {
		t.Fatalf("engine on coincident rows: err %v, stats %+v", err, stats)
	}
}

func TestClusterLandmarkRowsValidation(t *testing.T) {
	var buf []float64
	kf := kernel.NewGaussian(1)
	rows := matrix.NewDense(10, 2)
	for _, tc := range []struct{ k, m, d int }{{0, 4, 2}, {2, 0, 2}, {2, 11, 2}, {2, 4, 3}} {
		if _, err := ClusterLandmarkRows(rows, matrix.NewDense(tc.m, tc.d), kf, tc.k, 1, &buf); !errors.Is(err, ErrBadInput) {
			t.Errorf("K=%d m=%d d=%d: err = %v, want ErrBadInput", tc.k, tc.m, tc.d, err)
		}
	}
	res, err := ClusterLandmarkRows(matrix.NewDense(0, 2), matrix.NewDense(4, 2), kf, 2, 1, &buf)
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
}

// TestSampleRows: m distinct indices of [0, n), ascending, a pure
// function of the seed, and all of them when m = n.
func TestSampleRows(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 1}, {40, 40}, {20471, 40}, {100, 99}} {
		got := sampleRows(tc.n, tc.m, 7)
		if len(got) != tc.m || got[0] < 0 || got[len(got)-1] >= tc.n {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.m, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("n=%d m=%d: not strictly ascending at %d: %v", tc.n, tc.m, i, got)
			}
		}
		if !slices.Equal(got, sampleRows(tc.n, tc.m, 7)) {
			t.Fatalf("n=%d m=%d: the draw is not a function of the seed", tc.n, tc.m)
		}
	}
	if slices.Equal(sampleRows(20471, 40, 7), sampleRows(20471, 40, 8)) {
		t.Fatal("two seeds drew the same rows")
	}
}

// TestLandmarkQualityGuard holds the landmark solve to the bucket shapes
// the gate sends it: on 2 048 × 16 mixtures of 8 components at noise
// 0.06, one bucket each for seeds 1–8, its mean accuracy must be at least
// the random Fourier feature solve's at the same width (64) and within
// 0.02 of the exact dense solve's. Measured: landmark 0.984, RFF 0.922,
// dense 0.984 (EXPERIMENTS.md has the wider grid).
func TestLandmarkQualityGuard(t *testing.T) {
	const n, k, seeds = 2048, 8, 8
	var landmark, rff, dense float64
	for seed := int64(1); seed <= seeds; seed++ {
		l, err := dataset.Mixture(dataset.MixtureConfig{N: n, D: 16, K: k, Noise: 0.06, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		l.Shuffle(seed)
		indices := make([]int, n)
		for i := range indices {
			indices[i] = i
		}
		sigma := kernel.MedianSigma(l.Points, 512, seed)
		kf := kernel.NewGaussian(sigma)
		e, err := embed.NewRFF(16, 64, sigma, seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf []float64
		solve := func(cfg EngineConfig, want string) float64 {
			t.Helper()
			res, stats, err := ClusterBucket(l.Points, indices, kf, cfg, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Solver != want {
				t.Fatalf("seed %d: solver %q, want %q", seed, stats.Solver, want)
			}
			return embeddedAccuracy(res.Labels, l.Labels, k) / seeds
		}
		dense += solve(EngineConfig{K: k, Seed: seed}, SolverDenseLanczos)
		landmark += solve(EngineConfig{K: k, Seed: seed, Embedder: e, EmbedCutoff: 1}, SolverLandmark)
		res, _, err := clusterEmbedded(l.Points, indices, e, EngineConfig{K: k, Seed: seed}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		rff += embeddedAccuracy(res.Labels, l.Labels, k) / seeds
	}
	t.Logf("mean accuracy: landmark %.4f, RFF %.4f, dense %.4f", landmark, rff, dense)
	if landmark < rff {
		t.Errorf("landmark mean accuracy %.4f below the RFF solve's %.4f", landmark, rff)
	}
	if landmark < dense-0.02 {
		t.Errorf("landmark mean accuracy %.4f more than 0.02 below the dense solve's %.4f", landmark, dense)
	}
}

// mixShardedBucket is the shape of mix-sharded-tcp's largest embedded
// bucket: 20 471 rows of 16 dimensions, K 10, at EmbedDim 64.
func mixShardedBucket(b *testing.B) (*matrix.Dense, []int, kernel.Kernel, *embed.RFF) {
	b.Helper()
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 20471, D: 16, K: 10, Noise: 0.03, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	l.Shuffle(1)
	indices := make([]int, l.Points.Rows())
	for i := range indices {
		indices[i] = i
	}
	sigma := kernel.MedianSigma(l.Points, 512, 1)
	e, err := embed.NewRFF(16, 64, sigma, 1)
	if err != nil {
		b.Fatal(err)
	}
	return l.Points, indices, kernel.NewGaussian(sigma), e
}

// BenchmarkBucketSolveLandmark and BenchmarkBucketSolveEmbedded time the
// two embed-family routes on mix-sharded-tcp's largest bucket and report
// the bytes each allocates per solve (the scratch is reused, as a
// worker's is).
func BenchmarkBucketSolveLandmark(b *testing.B) {
	pts, indices, kf, e := mixShardedBucket(b)
	cfg := EngineConfig{K: 10, Seed: 1, Embedder: e, EmbedCutoff: 1024}
	var buf []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err := ClusterBucket(pts, indices, kf, cfg, &buf); err != nil || stats.Solver != SolverLandmark {
			b.Fatal(err, stats.Solver)
		}
	}
}

func BenchmarkBucketSolveEmbedded(b *testing.B) {
	pts, indices, _, e := mixShardedBucket(b)
	cfg := EngineConfig{K: 10, Seed: 1}
	var buf []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := clusterEmbedded(pts, indices, e, cfg, &buf); err != nil {
			b.Fatal(err)
		}
	}
}
