package spectral

import (
	"fmt"

	"repro/internal/kmeans"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// ClusterSparse runs Ng–Jordan–Weiss spectral clustering on a sparse
// similarity graph: the normalized Laplacian is applied implicitly
// through the CSR matrix, the top-K eigenvectors come from Lanczos, and
// the row-normalized embedding is clustered with K-means. This is the
// eigensolver path the PSC baseline, the per-bucket engine's sparse
// solve and any user-supplied sparse affinity share. It consumes s: the
// Laplacian scaling overwrites the stored similarities.
func ClusterSparse(s *sparse.CSR, cfg Config) (*Result, error) {
	n := s.N()
	if cfg.K <= 0 {
		return nil, fmt.Errorf("%w: K=%d", ErrBadInput, cfg.K)
	}
	if n == 0 {
		return &Result{Labels: []int{}, Eigenvalues: []float64{}, Embedding: matrix.NewDense(0, 0)}, nil
	}
	k := cfg.K
	if k > n {
		k = n
	}
	if k == n {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return &Result{Labels: labels, Eigenvalues: make([]float64, k), Embedding: matrix.NewDense(n, k)}, nil
	}

	if err := s.ScaleSym(matrix.InvSqrt(s.RowSums())); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	op := func(dst, src []float64) {
		if err := s.MulVec(dst, src); err != nil {
			// Lengths are fixed by construction; a mismatch here is a
			// spectral-package bug, not a runtime condition.
			matrix.Panicf("spectral: %v", err)
		}
	}
	lz, err := linalg.Lanczos(op, n, k, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("spectral: sparse eigensolver: %w", err)
	}
	vecs := lz.Vectors
	matrix.NormalizeRows(vecs)
	km, err := kmeans.Run(vecs, kmeans.Config{K: k, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("spectral: kmeans: %w", err)
	}
	return &Result{
		Labels:      km.Labels,
		Eigenvalues: lz.Values,
		Embedding:   vecs,
		Inertia:     km.Inertia,
	}, nil
}
