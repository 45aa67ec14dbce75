package spectral

// This file is the embedded solve policy of the per-bucket engine: the
// embed-and-conquer path (PAPERS.md arXiv:1311.2334) that replaces the
// Gram build + eigensolve of a large bucket with a kernel embedding
// followed by plain Hamerly k-means on the embedded rows. Where the
// dense path pays O(n²d) for the Gram and O(n³)/O(n²k) for the
// eigensolve, the embedded path pays O(n·d·d′) for the transform and
// O(n·d′·k) per Lloyd iteration — dot-product-bound, not solver-bound —
// and its working set is 8·n·d′ bytes instead of the 4·n² Gram.
//
// Every driver reaches it through ClusterBucket with raw rows, so one
// bucket is embedded in one place whichever process solves it.
// ClusterEmbeddedRows, the k-means half, is exported for measuring it
// alone; because embeddings are pure per-row functions (see
// internal/embed) and it is deterministic in (rows, cfg), embedding a
// bucket's rows by hand and calling it gives the engine's labels bitwise.

import (
	"fmt"
	"time"

	"repro/internal/embed"
	"repro/internal/kmeans"
	"repro/internal/matrix"
)

// SolverEmbedded is the embedded solve of the engine policy: kernel
// embedding + k-means, no Gram and no eigensolve.
const SolverEmbedded = "embedded"

// ClusterEmbeddedRows runs the reduce half of the embedded solve: plain
// k-means on already-embedded rows. The returned Result carries labels
// and inertia only — there is no eigensystem, and Embedding is left nil
// because emb usually aliases pooled scratch that the caller reuses.
func ClusterEmbeddedRows(emb *matrix.Dense, cfg Config) (*Result, error) {
	n := emb.Rows()
	if cfg.K <= 0 {
		return nil, fmt.Errorf("%w: K=%d", ErrBadInput, cfg.K)
	}
	if n == 0 {
		return &Result{Labels: []int{}, Eigenvalues: []float64{}}, nil
	}
	k := cfg.K
	if k > n {
		k = n
	}
	km, err := kmeans.Run(emb, kmeans.Config{K: k, Seed: cfg.Seed, MaxIter: cfg.KMeansIter})
	if err != nil {
		return nil, fmt.Errorf("spectral: embedded kmeans: %w", err)
	}
	return &Result{Labels: km.Labels, Inertia: km.Inertia}, nil
}

// clusterEmbedded runs the full embedded solve for the engine: embed
// the bucket rows into the pooled scratch, then cluster them. Errors
// are returned, not silently downgraded to a Gram solve: the plan every
// driver costs and packs by calls the bucket embedded, and a quiet
// engine-side switch of route would make the run disagree with it.
func clusterEmbedded(points *matrix.Dense, indices []int, e embed.Embedder, cfg EngineConfig, scratch *[]float64) (*Result, SolveStats, error) {
	start := time.Now()
	ni := len(indices)
	dim := e.Dim()
	stats := SolveStats{
		Solver:    SolverEmbedded,
		N:         ni,
		NNZ:       int64(ni) * int64(dim),
		Fill:      float64(dim) / float64(ni),
		GramBytes: embed.Bytes(ni, dim),
	}
	if cap(*scratch) < ni*dim {
		*scratch = make([]float64, ni*dim)
	}
	buf := (*scratch)[:ni*dim]
	if err := e.TransformInto(buf, points, indices); err != nil {
		stats.Nanos = time.Since(start).Nanoseconds()
		return nil, stats, err
	}
	emb, err := matrix.NewDenseData(ni, dim, buf)
	if err != nil {
		stats.Nanos = time.Since(start).Nanoseconds()
		return nil, stats, err
	}
	res, err := ClusterEmbeddedRows(emb, Config{K: cfg.K, Seed: cfg.Seed, KMeansIter: cfg.KMeansIter})
	stats.Nanos = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}
