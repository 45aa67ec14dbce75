// Package spectral implements the Ng–Jordan–Weiss spectral clustering
// algorithm on a precomputed similarity matrix: normalized Laplacian
// (Eq. 2), top-K eigenvectors, row normalization, K-means. It is the
// kernel-based machine learning stage that DASC runs per bucket and
// that the SC baseline runs on the full Gram matrix.
package spectral

import (
	"errors"
	"fmt"

	"repro/internal/kmeans"
	"repro/internal/linalg"
	"repro/internal/matrix"
)

// Config controls one spectral-clustering invocation.
type Config struct {
	// K is the number of clusters (and eigenvectors). Required.
	K int
	// Seed feeds the K-means stage.
	Seed int64
}

// Result carries the clustering plus the spectral intermediates that
// the evaluation metrics need.
type Result struct {
	// Labels[i] is the cluster of row i of the similarity matrix.
	Labels []int
	// Eigenvalues of the normalized Laplacian, descending, length K.
	Eigenvalues []float64
	// Embedding is the row-normalized eigenvector matrix (n x K) that
	// K-means ran on.
	Embedding *matrix.Dense
	// Inertia of the final K-means solution.
	Inertia float64
}

// ErrBadInput reports an unusable similarity matrix or configuration.
var ErrBadInput = errors.New("spectral: bad input")

// Cluster runs spectral clustering on the symmetric similarity matrix
// s, which is left untouched. Only the upper triangle of s is read: a
// copy is seen through a matrix.Sym view and overwritten with the
// normalized Laplacian — the solve ClusterBucket runs on its packed
// sub-Gram, bit for bit.
func Cluster(s *matrix.Dense, cfg Config) (*Result, error) {
	v, err := matrix.UpperSym(s.Clone())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return clusterSym(v, cfg)
}

// clusterSym is the one dense solve: the normalized Laplacian of Eq. 2
// overwrites v's triangle, its top-K eigenvectors come from Lanczos on
// v.MulVec (or, for a small n or a K near n, from tred2+tqli on v
// mirrored into an n x n), and K-means clusters their normalized rows.
func clusterSym(v *matrix.Sym, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("%w: K=%d", ErrBadInput, cfg.K)
	}
	n := v.N()
	if n == 0 {
		return &Result{Labels: []int{}, Eigenvalues: []float64{}, Embedding: matrix.NewDense(0, 0)}, nil
	}
	k := min(cfg.K, n)
	// Degenerate but legal: every point its own cluster.
	if k == n {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return &Result{Labels: labels, Eigenvalues: make([]float64, k), Embedding: matrix.NewDense(n, k)}, nil
	}

	v.ScaleSym(matrix.InvSqrt(v.RowSums()))
	vals, vecs, err := linalg.TopKEigenSym(v, k)
	if err != nil {
		return nil, fmt.Errorf("spectral: eigendecomposition: %w", err)
	}
	matrix.NormalizeRows(vecs)

	km, err := kmeans.Run(vecs, kmeans.Config{K: k, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("spectral: kmeans: %w", err)
	}
	return &Result{
		Labels:      km.Labels,
		Eigenvalues: vals,
		Embedding:   vecs,
		Inertia:     km.Inertia,
	}, nil
}

// Laplacian computes the normalized Laplacian L = D^{-1/2} S D^{-1/2}
// of Eq. 2, where D is the diagonal row-sum (degree) matrix of S. S is
// left untouched and, as in Cluster, only its upper triangle is read.
func Laplacian(s *matrix.Dense) (*matrix.Dense, error) {
	v, err := matrix.UpperSym(s.Clone())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	v.ScaleSym(matrix.InvSqrt(v.RowSums()))
	return v.Dense(), nil
}
