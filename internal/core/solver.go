package core

// This file is the solve stage's one rule (§4.1, Eqs. 7–12): a bucket of
// Ni points out of N gets its share Ki of K, holds a 4·Ni² sub-Gram —
// or 8·Ni·d′ of embedded rows where the embed policy claims it — and
// costs β(2Ni² + 2KiNi). Whatever needs that before, beside or after the
// solve (wave packing, the EMR flow, label assembly) reads
// bucketSolver.plan instead of restating it.

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/kmeans"
	"repro/internal/matrix"
	"repro/internal/spectral"
)

// solvePolicy is everything a bucket solve depends on besides the
// bucket: the dataset shape, the K to share out, the kernel bandwidth,
// the seed and the engine dials (zero SparseCutoff/EmbedDim reproduce the
// dense path exactly). It travels to workers in the stage-2 Job.Conf;
// kernel and feature map are pure functions of it, so every process
// builds bitwise the same ones.
type solvePolicy struct {
	N, Cols      int
	K            int
	Sigma        float64
	Seed         int64
	SparseCutoff int
	Epsilon      float64
	EmbedDim     int
	EmbedCutoff  int
}

// policyOf is the solve policy of a resolved configuration for an
// n x cols dataset at kernel bandwidth sigma.
func policyOf(cfg Config, n, cols int, sigma float64) solvePolicy {
	return solvePolicy{
		N: n, Cols: cols, K: cfg.K, Sigma: sigma, Seed: cfg.Seed,
		SparseCutoff: cfg.SparseCutoff, Epsilon: cfg.Epsilon,
		EmbedDim: cfg.EmbedDim, EmbedCutoff: cfg.EmbedCutoff,
	}
}

// bucketSolver plans, costs and solves buckets under one policy. It is
// immutable and safe for concurrent use; a solve's scratch is the
// caller's.
type bucketSolver struct {
	pol solvePolicy
	kf  kernel.Kernel
	emb embed.Embedder // nil unless pol.EmbedDim > 0
}

// newBucketSolver validates the policy — the driver's comes from a
// Config, a worker's off the wire — and builds the Gaussian kernel and,
// in embed mode, the random Fourier feature map.
func newBucketSolver(pol solvePolicy) (*bucketSolver, error) {
	bad := ""
	switch {
	case pol.N < 1 || pol.Cols < 1:
		bad = "an empty dataset"
	case pol.K < 1 || pol.K > pol.N:
		bad = "K outside [1,N]"
	case !(pol.Sigma > 0):
		bad = "Sigma not positive"
	case pol.SparseCutoff < 0:
		bad = "SparseCutoff negative"
	case !(pol.Epsilon >= 0 && pol.Epsilon < 1):
		bad = "Epsilon outside [0,1)"
	case pol.EmbedDim < 0 || pol.EmbedDim%2 != 0:
		bad = "EmbedDim negative or odd (features come in cos/sin pairs)"
	case pol.EmbedCutoff < 0 || (pol.EmbedDim > 0 && pol.EmbedCutoff < 1):
		bad = "EmbedCutoff not positive"
	}
	if bad != "" {
		return nil, fmt.Errorf("%w: %s in %+v", ErrBadConfig, bad, pol)
	}
	s := &bucketSolver{pol: pol, kf: kernel.NewGaussian(pol.Sigma)}
	if pol.EmbedDim > 0 {
		emb, err := embed.NewRFF(pol.Cols, pol.EmbedDim, pol.Sigma, pol.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: embed: %w", err)
		}
		s.emb = emb
	}
	return s, nil
}

// solveClass is how a bucket will be solved, as far as its size decides.
type solveClass uint8

const (
	classTrivial  solveClass = iota // one cluster, or one per point: no similarity at all
	classEmbedded                   // k-means on kernel-embedded rows, no Gram
	classGram                       // a sub-Gram; which eigensolver is the engine's choice from measured fill
)

// bucketPlan is what a bucket's size says about its solve: its share K
// of the policy's K, its class, and the similarity storage resident
// while it is solved — the embedded rows, else the paper's dense 4·Ni²,
// which the packed float64 triangle the engine solves on holds within
// 4·Ni (also for trivial buckets, which Figure 6(b)'s Gram metric
// counts in full; an upper bound when the engine's sparse attempt
// succeeds).
type bucketPlan struct {
	K     int
	Class solveClass
	Bytes int64
}

// plan decides a bucket of ni points.
func (s *bucketSolver) plan(ni int) bucketPlan {
	ki := BucketK(s.pol.K, ni, s.pol.N)
	switch {
	case ki == 1 || ki == ni: // covers ni <= 1
		return bucketPlan{K: ki, Class: classTrivial, Bytes: kernel.GramBytes(ni)}
	case s.engine(ki).Embeds(ni):
		return bucketPlan{K: ki, Class: classEmbedded, Bytes: embed.Bytes(ni, s.emb.Dim())}
	}
	return bucketPlan{K: ki, Class: classGram, Bytes: kernel.GramBytes(ni)}
}

// engine is the spectral engine's configuration at ki clusters, seed
// aside.
func (s *bucketSolver) engine(ki int) spectral.EngineConfig {
	return spectral.EngineConfig{
		K:            ki,
		SparseCutoff: s.pol.SparseCutoff,
		Epsilon:      s.pol.Epsilon,
		Embedder:     s.emb,
		EmbedCutoff:  s.pol.EmbedCutoff,
	}
}

// cost is the §4.1 time model, β(2Ni² + 2KiNi); an embedded bucket is
// dot-product-bound, 2Ni·d′ in place of 2Ni². Trivial buckets are billed
// the Gram term like the paper's reducer, which builds it regardless.
func (s *bucketSolver) cost(pl bucketPlan, ni int, beta float64) float64 {
	width := float64(ni)
	if pl.Class == classEmbedded {
		width = float64(s.emb.Dim())
	}
	return beta * (2*float64(ni)*width + 2*float64(pl.K)*float64(ni))
}

// bucket is one LSH bucket as the solve stage sees it: row rows[i] of
// points is the bucket's i-th point and ids[i] its dataset index (the
// same list when points is the whole dataset). The rows are always the
// raw input vectors.
type bucket struct {
	points *matrix.Dense
	rows   []int
	ids    []int
}

// solve is what every runner does with a bucket, whatever its rows'
// provenance: nothing for a trivial one; otherwise the spectral engine —
// sub-Gram (dense or thresholded CSR), normalized Laplacian,
// eigenvectors, K-means, or kernel embedding + k-means with no Gram at
// all.
//
// Dense sub-Grams (the packed upper triangle, 8·Ni(Ni+1)/2 bytes — the
// plan's Bytes plus 4·Ni) and embedded row blocks are built inside *buf
// (grown as needed, reused across calls — each worker owns one; it may
// start nil) and consumed in place: the Laplacian overwrites it, so
// nothing retains the buffer after the solve. Sparse and trivial solves
// never touch it.
func (s *bucketSolver) solve(b bucket, buf *[]float64) (BucketSolution, error) {
	ni := len(b.rows)
	pl := s.plan(ni)
	if pl.Class == classTrivial {
		labels := make([]int, ni)
		if pl.K == ni {
			for i := range labels {
				labels[i] = i
			}
		}
		return BucketSolution{Labels: labels, K: pl.K, Solver: SolverTrivial, GramBytes: pl.Bytes}, nil
	}
	ecfg := s.engine(pl.K)
	ecfg.Seed = s.pol.Seed + int64(b.ids[0])
	res, stats, err := spectral.ClusterBucket(b.points, b.rows, s.kf, ecfg, buf)
	sol := BucketSolution{
		K: pl.K, Solver: stats.Solver, NNZ: stats.NNZ, Fill: stats.Fill,
		SolveNanos: stats.Nanos, GramBytes: stats.GramBytes,
	}
	if err == nil {
		sol.Labels = res.Labels
		return sol, nil
	}
	// Degenerate sub-Gram (e.g. all-zero similarities): fall back to
	// K-means on the raw bucket points rather than failing the run.
	bucketPts := matrix.NewDense(ni, b.points.Cols())
	matrix.GatherRows(bucketPts.Data(), b.points, b.rows)
	km, kerr := kmeans.Run(bucketPts, kmeans.Config{K: pl.K, Seed: s.pol.Seed})
	if kerr != nil {
		return BucketSolution{}, fmt.Errorf("spectral (%v) and kmeans fallback (%v) both failed", err, kerr)
	}
	sol.Labels, sol.Solver = km.Labels, SolverKMeansFallback
	return sol, nil
}
