package spectral

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/offheap"
)

// TestClusterBucketResultOutlivesScratch: on every solver route, the
// Result a ClusterBucket returns owns its labels, eigenvalues and
// embedding. Overwriting the whole scratch with NaN afterwards changes
// none of them, and neither does unmapping it — a Result that aliased
// the buffer lsh.EachBucket frees at the end of its loop would read
// garbage, or fault.
func TestClusterBucketResultOutlivesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := makeBlobs(rng, 4, 60, 8, 8, 0.3)
	n := pts.Rows()
	e12, err := embed.NewRFF(8, 12, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	e64, err := embed.NewRFF(8, 64, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		solver string
		ni     int
		sigma  float64
		cfg    EngineConfig
	}{
		{SolverDenseEigen, 40, 1.5, EngineConfig{K: 4, Seed: 1}},
		{SolverDenseLanczos, n, 1.5, EngineConfig{K: 4, Seed: 1}},
		{SolverSparseLanczos, n, 1, EngineConfig{K: 4, Seed: 1, SparseCutoff: 128, Epsilon: 1e-4}},
		{SolverLandmark, n, 1.5, EngineConfig{K: 4, Seed: 1, Embedder: e64, EmbedCutoff: 128}},
		{SolverEmbedded, n, 1.5, EngineConfig{K: 4, Seed: 1, Embedder: e12, EmbedCutoff: 128}},
	} {
		indices := make([]int, tc.ni)
		for i := range indices {
			indices[i] = i * n / tc.ni
		}
		mapped := offheap.Alloc(max(matrix.PackedLen(tc.ni), tc.ni*64))
		scratch := mapped
		res, stats, err := ClusterBucket(pts, indices, kernel.NewGaussian(tc.sigma), tc.cfg, &scratch)
		if err != nil {
			t.Fatalf("%s: %v", tc.solver, err)
		}
		if stats.Solver != tc.solver {
			t.Fatalf("fixture for %s took the %s route", tc.solver, stats.Solver)
		}
		labels := slices.Clone(res.Labels)
		vals := bitsOf(res.Eigenvalues)
		var emb []uint64
		if res.Embedding != nil {
			emb = bitsOf(res.Embedding.Data())
		}
		check := func(when string) {
			t.Helper()
			if !slices.Equal(res.Labels, labels) || !slices.Equal(bitsOf(res.Eigenvalues), vals) {
				t.Errorf("%s: labels or eigenvalues changed %s", tc.solver, when)
			}
			if res.Embedding != nil && !slices.Equal(bitsOf(res.Embedding.Data()), emb) {
				t.Errorf("%s: embedding changed %s", tc.solver, when)
			}
		}
		whole := scratch[:cap(scratch)]
		for i := range whole {
			whole[i] = math.NaN()
		}
		check("when the scratch was overwritten")
		offheap.Free(mapped)
		check("when the scratch was unmapped")
	}
}

// bitsOf is the IEEE bits of each value.
func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, v := range xs {
		out[i] = math.Float64bits(v)
	}
	return out
}
