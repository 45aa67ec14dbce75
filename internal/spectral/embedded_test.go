package spectral

import (
	"math/rand"
	"testing"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/matrix"
)

// accuracy computes label agreement under the best greedy mapping —
// good enough for well-separated blobs where clusters are unambiguous.
func embeddedAccuracy(labels, truth []int, k int) float64 {
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	for i, l := range labels {
		counts[l][truth[i]]++
	}
	correct := 0
	for _, row := range counts {
		best := 0
		for _, c := range row {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(labels))
}

// TestClusterBucketEmbeddedPolicy: with embed mode on, buckets at or
// above the cutoff take the embedded solver (no Gram), report d′-sized
// stats, and still recover well-separated blobs; buckets below the
// cutoff are untouched.
func TestClusterBucketEmbeddedPolicy(t *testing.T) {
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
	cfg := EngineConfig{K: 4, Seed: 9, Embedder: e, EmbedCutoff: 256}
	res, stats, err := ClusterBucket(pts, indices, kf, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver != SolverEmbedded {
		t.Fatalf("solver = %q, want %q", stats.Solver, SolverEmbedded)
	}
	if stats.NNZ != int64(n)*64 || stats.GramBytes != embed.Bytes(n, 64) {
		t.Fatalf("embedded stats: %+v", stats)
	}
	if acc := embeddedAccuracy(res.Labels, truth, 4); acc < 0.95 {
		t.Fatalf("embedded solve accuracy %v on separated blobs", acc)
	}

	// Below the cutoff the dense policy is untouched.
	small := indices[:100]
	_, stats, err = ClusterBucket(pts, small, kf, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver == SolverEmbedded {
		t.Fatalf("bucket of 100 embedded at cutoff 256 (solver %q)", stats.Solver)
	}
}

// TestClusterBucketEmbeddedMatchesRowsHalf pins the split contract: the
// engine's one-shot embedded solve must produce bitwise the labels of
// embedding the rows first and calling ClusterEmbeddedRows on them — the
// sequence that times the k-means half on its own.
func TestClusterBucketEmbeddedMatchesRowsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := makeBlobs(rng, 3, 90, 6, 7, 0.4)
	indices := []int{5, 250, 7, 100, 42, 199, 0, 269, 77, 133, 201, 18, 93, 150, 222, 60,
		11, 12, 13, 14, 15, 16, 17, 30, 31, 32, 33, 34, 35, 36, 37, 38}
	kf := kernel.NewGaussian(1.2)
	e, err := embed.NewNystrom(pts, 48, 16, 1.2, 3)
	if err != nil {
		t.Fatal(err)
	}

	var buf []float64
	cfg := EngineConfig{K: 3, Seed: 41, Embedder: e, EmbedCutoff: 16}
	engine, stats, err := ClusterBucket(pts, indices, kf, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver != SolverEmbedded {
		t.Fatalf("solver = %q", stats.Solver)
	}

	// The two halves by hand: embed the rows, then run only k-means.
	rows := make([]float64, len(indices)*e.Dim())
	if err := e.TransformInto(rows, pts, indices); err != nil {
		t.Fatal(err)
	}
	emb, err := matrix.NewDenseData(len(indices), e.Dim(), rows)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := ClusterEmbeddedRows(emb, Config{K: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for i := range engine.Labels {
		if engine.Labels[i] != shipped.Labels[i] {
			t.Fatalf("label[%d]: engine %d, rows-half %d", i, engine.Labels[i], shipped.Labels[i])
		}
	}
	if engine.Inertia != shipped.Inertia {
		t.Fatalf("inertia: engine %v, rows-half %v", engine.Inertia, shipped.Inertia)
	}
}

// TestClusterBucketEmbedPrecedesSparse: a bucket eligible for both
// approximate modes takes the embedded path.
func TestClusterBucketEmbedPrecedesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts, _ := makeBlobs(rng, 4, 70, 8, 9, 0.3)
	indices := make([]int, pts.Rows())
	for i := range indices {
		indices[i] = i
	}
	e, err := embed.NewRFF(8, 32, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf []float64
	cfg := EngineConfig{
		K: 4, Seed: 1,
		SparseCutoff: 128, Epsilon: 1e-3,
		Embedder: e, EmbedCutoff: 128,
	}
	_, stats, err := ClusterBucket(pts, indices, kernel.NewGaussian(1.5), cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Solver != SolverEmbedded {
		t.Fatalf("solver = %q, want embedded to take precedence", stats.Solver)
	}
}

func TestClusterEmbeddedRowsValidation(t *testing.T) {
	emb := matrix.NewDense(4, 2)
	if _, err := ClusterEmbeddedRows(emb, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	res, err := ClusterEmbeddedRows(matrix.NewDense(0, 2), Config{K: 2})
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
}
