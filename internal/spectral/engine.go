package spectral

// This file is the per-bucket solve engine shared by the DASC bucket
// path, the bucketed kernel-ML front-ends, and anything else that turns
// (points, indices, kernel) into labels. It owns the adaptive solver
// policy:
//
//	bucket size / measured fill          solver            similarity form
//	------------------------------------ ----------------- ------------------
//	embed mode on, ni >= EmbedCutoff:
//	  4K <= d′                           landmark          none (n x m cross block)
//	  4K >  d′                           embedded          none (d′ rows)
//	ni <= 96 or 3K >= ni                 dense-eigen       packed (+ n x n)
//	larger, sparse mode off              dense-lanczos     packed
//	sparse mode on, fill <= 0.35         sparse-lanczos    CSR (owned)
//
// A sparse-mode bucket whose ε-cut keeps more than 0.35 of the entries,
// or whose thresholded graph is degenerate, takes the exact packed solve
// of the rows above it.
//
// "packed" is the sub-Gram's upper triangle in the caller's scratch
// (kernel.SubGramPacked, n(n+1)/2 float64s); the normalized Laplacian
// overwrites it and Lanczos runs on its symmetric mat-vec. dense-eigen
// mirrors it into a transient n x n for tred2.
//
// Sparse mode is opt-in (SparseCutoff > 0 and Epsilon > 0) and is an
// approximation: entries below ε are dropped before the eigensolve.
// Embed mode (a feature map plus EmbedCutoff > 0) is likewise opt-in and
// likewise approximate — it skips the Gram entirely and runs k-means on
// Nyström eigenvectors of m ≤ d′ landmarks (landmark.go) or on
// kernel-embedded rows (embedded.go), d′ being the width budget of both
// — and it takes precedence over the sparse attempt, since a bucket big
// enough to embed never needs the ε-cut. With both modes off the engine
// executes exactly the dense sequence of Cluster on the mirrored
// sub-Gram, on half the storage, so default configurations reproduce
// byte-identical labels and eigenvalues. Every branch of the policy is
// a deterministic function of the bucket's size, config, and measured
// fill — never of the worker count — and each solver is itself bitwise
// worker-independent, so label bits never depend on parallelism.

import (
	"time"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/matrix"
)

// Solver kind names reported in SolveStats and on core counters.
const (
	// SolverDenseEigen is the full tred2+tqli reduction of a dense
	// Laplacian — small buckets, or most of the spectrum wanted.
	SolverDenseEigen = "dense-eigen"
	// SolverDenseLanczos is Lanczos on a dense Laplacian via the
	// blocked MatVec — mid-size buckets without sparse mode.
	SolverDenseLanczos = "dense-lanczos"
	// SolverSparseLanczos is Lanczos on a thresholded CSR Laplacian —
	// large buckets whose ε-cut fill stays below MaxSparseFill.
	SolverSparseLanczos = "sparse-lanczos"
)

// MaxSparseFill is the measured-fill ceiling for the CSR solver: above
// it the bucket takes the exact packed solve instead, since CSR row
// scans at ~8 bytes/entry stop paying for themselves against the dense
// engine's 1x4 micro-tiled rows well before the pattern is actually
// dense.
const MaxSparseFill = 0.35

// EngineConfig configures one bucket solve.
type EngineConfig struct {
	// K is the number of clusters to extract. Required.
	K int
	// Seed feeds the Lanczos start vector and the K-means stage.
	Seed int64
	// SparseCutoff is the bucket size at or above which the engine
	// attempts the ε-thresholded CSR path. 0 disables sparse mode.
	SparseCutoff int
	// Epsilon is the similarity threshold of the sparse emit: entries
	// with |v| < Epsilon are dropped. Must be > 0 for sparse mode;
	// defaults (0) keep the exact dense path.
	Epsilon float64
	// Embedder, when non-nil together with EmbedCutoff > 0, enables the
	// embed-family solves for buckets of at least EmbedCutoff rows:
	// landmark Nyström eigenvectors or random Fourier features, then
	// k-means, instead of Gram + eigensolve. Its Dim is the per-row width
	// budget of both (see Landmarks).
	Embedder *embed.RFF
	// EmbedCutoff is the bucket size at or above which the embedded
	// solve runs. 0 disables embed mode.
	EmbedCutoff int
}

// Embeds is the embed gate of the policy table above: whether the
// embedded solve claims a bucket of ni rows under this configuration.
// k == ni stays with the exact path (its identity-label degenerate
// case). Callers that must know the choice before the solve — a memory
// plan, a cost model — ask here, so their answer cannot drift from
// ClusterBucket's.
func (c EngineConfig) Embeds(ni int) bool {
	return c.Embedder != nil && c.EmbedCutoff > 0 && ni >= c.EmbedCutoff && c.K < ni
}

// SolveStats reports what one bucket solve actually did.
type SolveStats struct {
	// Solver is the SolverKind that produced the result.
	Solver string
	// N is the bucket size.
	N int
	// NNZ is the stored-entry count of the similarity matrix the
	// eigensolver consumed (n² for a pure dense solve).
	NNZ int64
	// Fill is NNZ/n².
	Fill float64
	// GramBytes is the similarity storage held during the solve: 8·nnz
	// for the CSR path; for dense, the paper's 4·n², which the packed
	// float64 triangle it solves on holds within 4·n.
	GramBytes int64
	// Nanos is the solve wall time, sub-Gram build included.
	Nanos int64
}

// denseSolverName names the solver TopKEigenSym will pick for an n x n
// dense problem with k wanted pairs.
func denseSolverName(n, k int) string {
	if linalg.UsesLanczos(n, k) {
		return SolverDenseLanczos
	}
	return SolverDenseEigen
}

// ClusterBucket runs spectral clustering on the sub-Gram of the listed
// rows, choosing the solver by the policy above. scratch is the
// caller's sub-Gram buffer (grown as needed, reused across buckets):
// the packed triangle, the landmark cross block or the embedded rows;
// the sparse path never touches it, and the Result never aliases it.
// The returned stats describe the solver choice, the similarity
// storage, and the wall time; they are filled even when err != nil, so
// fallback paths can still be accounted.
func ClusterBucket(points *matrix.Dense, indices []int, kf kernel.Kernel, cfg EngineConfig, scratch *[]float64) (*Result, SolveStats, error) {
	start := time.Now()
	ni := len(indices)
	k := cfg.K
	if k > ni {
		k = ni
	}
	stats := SolveStats{N: ni}
	sCfg := Config{K: cfg.K, Seed: cfg.Seed}

	// Embed mode takes the bucket out of the Gram economy altogether,
	// and embed errors surface instead of downgrading to a Gram solve the
	// caller's plan did not cost. Landmarks decides between its routes.
	if m := cfg.Landmarks(ni); m > 0 {
		return clusterLandmark(points, indices, kf, m, cfg, scratch)
	}
	if cfg.Embeds(ni) {
		return clusterEmbedded(points, indices, cfg.Embedder, cfg, scratch)
	}

	// The CSR attempt is gated on the policy being able to use it: the
	// sparse solver is Lanczos-only, so buckets the dense policy would
	// solve with the full reduction anyway skip the emit entirely.
	if cfg.SparseCutoff > 0 && cfg.Epsilon > 0 && ni >= cfg.SparseCutoff && linalg.UsesLanczos(ni, k) {
		csr, err := kernel.SubGramSparse(points, indices, kf, cfg.Epsilon)
		// An ε-cut that kept too much, or a degenerate thresholded
		// graph (e.g. isolated rows), falls through to the exact solve.
		if err == nil && csr.Fill() <= MaxSparseFill {
			if res, err := ClusterSparse(csr, sCfg); err == nil {
				stats.Solver = SolverSparseLanczos
				stats.NNZ, stats.Fill, stats.GramBytes = int64(csr.NNZ()), csr.Fill(), csr.Bytes()
				stats.Nanos = time.Since(start).Nanoseconds()
				return res, stats, nil
			}
		}
	}

	// Default path: the exact dense solve on the packed sub-Gram.
	stats.Solver = denseSolverName(ni, k)
	stats.NNZ = int64(ni) * int64(ni)
	stats.Fill = 1
	stats.GramBytes = kernel.GramBytes(ni)
	sub, err := kernel.SubGramPacked(points, indices, kf, scratch)
	if err != nil {
		stats.Nanos = time.Since(start).Nanoseconds()
		return nil, stats, err
	}
	res, err := clusterSym(sub, sCfg)
	stats.Nanos = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}
