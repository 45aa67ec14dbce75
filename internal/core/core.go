// Package core implements DASC — Distributed Approximate Spectral
// Clustering — the paper's primary contribution (§3). The pipeline is:
//
//  1. hash every point to an M-bit signature with span-weighted
//     random-projection LSH (internal/lsh),
//  2. group points by signature and merge buckets whose signatures are
//     near-duplicates (Eq. 6),
//  3. compute a Gaussian-kernel sub-similarity matrix per bucket
//     (internal/kernel) — the approximated Gram matrix,
//  4. run spectral clustering independently on every bucket
//     (internal/spectral) and assemble global labels.
//
// There is exactly one driver, Run (pipeline.go): it fits one plan and
// runs that dataflow once, and one solve stage, the bucketSolver of
// solver.go, plans, costs and solves every bucket. Where the rows come
// from (a resident matrix or a shard directory, the Source) and
// Config.Executor choose the runner: the in-process pool, in waves
// bounded by Config.MemoryBudget (the paper's §5.1 incremental
// processing), or the paper's two Hadoop jobs on any mapreduce.Executor
// (mapreduce.go) over the rows shipped inside the records or left in
// shard files (rowsource.go) — either way the workers may live in other
// OS processes. EMRFlow additionally builds an emr job flow whose task
// costs follow §4.1's model, for the elasticity study of Table 3.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/analytic"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// Config controls a DASC run.
type Config struct {
	// K is the total number of clusters across the dataset; 0 derives
	// it from the paper's category law K = 17(log2 N - 9).
	K int
	// M is the signature width in bits; 0 uses the paper's
	// M = ceil(log2(N)/2) - 1.
	M int
	// P is the minimum number of identical signature bits required to
	// merge two buckets; 0 uses the paper's P = M-1 (Hamming radius 1).
	// Set P = -1 to disable merging entirely (ablation); P < -1 and
	// P > M are ErrBadConfig.
	P int
	// Sigma is the Gaussian kernel bandwidth; 0 selects the median
	// heuristic from a data sample, and a negative value is ErrBadConfig.
	Sigma float64
	// Policy selects the LSH dimension-choice strategy.
	Policy lsh.DimensionPolicy
	// Bins is the LSH threshold histogram resolution (default 20).
	Bins int
	// Seed makes the run reproducible.
	Seed int64
	// Family optionally replaces the paper's span/threshold hash with
	// another LSH family (SimHash, MinHash, spectral hashing, or a
	// prebuilt lsh.Ensemble). When set, M is taken from the family and
	// Policy/Bins are ignored. With Tables > 1 the family must be an
	// lsh.Ensemble or lsh.Refittable (MinHash) so independent tables can
	// be derived. The MapReduce drivers and EMRFlow ship the paper's
	// fitted thresholds to worker processes and reject a Family with
	// ErrBadConfig.
	Family lsh.Family
	// Tables is the number of independent LSH tables L (default 1, the
	// paper's single-signature front-end). With L > 1, buckets that
	// share a point in any table are merged, repairing clusters that one
	// table's unlucky cut fragmented.
	Tables int
	// ProbeRadius enables multi-probe bucket merging: every point also
	// probes the buckets of signatures within this many bit flips
	// (lowest-margin bits first) and merges with the buckets it hits.
	// 0 (the default) disables probing.
	ProbeRadius int
	// MaxMergedBucket caps the size a bucket may reach through
	// cross-table or probe merging — the cost half of the recall/cost
	// dial, bounding the Ni^2 solve work the ensemble can create.
	// 0 means unlimited.
	MaxMergedBucket int
	// SparseCutoff enables the thresholded-CSR solve engine for buckets
	// with at least this many points; it needs Epsilon > 0, and one set
	// without the other is ErrBadConfig. 0 (the default) keeps every
	// bucket on the dense path, which reproduces pre-engine labels bit
	// for bit.
	SparseCutoff int
	// Epsilon is the similarity threshold of the sparse Gram pass:
	// kernel entries below it are dropped before the eigensolve. Set
	// with SparseCutoff; must lie in [0, 1).
	Epsilon float64
	// EmbedDim enables the embed-family solves: when > 0, buckets of at
	// least EmbedCutoff points skip the sub-Gram entirely, and EmbedDim
	// is the per-row width budget of both routes. A bucket whose share
	// Ki of K has 4·Ki ≤ EmbedDim takes the landmark solve: Nyström
	// eigenvectors from min(Ni, max(4·Ki, EmbedDim/2)) landmark rows,
	// then k-means in Ki dimensions. Any other takes the random Fourier
	// feature solve: the plan fits a feature map of this dimension (must
	// be even — the features come in cos/sin pairs), and k-means runs
	// on the embedded rows. Every runner solves a bucket where it is
	// solved; what travels between MapReduce stages is raw rows either
	// way. 0 (the default) keeps every bucket on the exact Gram path.
	EmbedDim int
	// EmbedCutoff is the bucket size at or above which the embed-family
	// solves run. Set without EmbedDim it is ErrBadConfig; 0 with
	// EmbedDim > 0 defaults to DefaultEmbedCutoff.
	EmbedCutoff int
	// SpillBytes bounds the MapReduce master's in-memory shuffle buffer
	// (mapreduce.Job.SpillBytes, Hadoop's io.sort.mb analogue): the
	// MapReduce drivers thread it into every job they run, so map
	// output beyond the budget spills to per-partition disk runs and
	// the shuffle merges from disk. 0 (the default) keeps the shuffle
	// fully in memory; labels are bit-identical at any setting.
	SpillBytes int64
	// Compression makes the MapReduce drivers run their jobs with
	// mapreduce.Job.Compress: spill runs are deflated, and so are TCP
	// frames large enough to gain from it. Labels are bit-identical
	// with it on or off — only bytes moved and CPU spent in the codec
	// change.
	Compression bool
	// FitSample is the number of evenly spaced rows a Source.Dir run
	// reads to fit its plan (LSH thresholds, kernel bandwidth) without
	// loading the full matrix; 0 uses DefaultFitSample. FitSample >= N
	// reads every row in order, which makes the fit — and therefore the
	// labels — identical to a Source.Points run's. Only a Source.Dir run
	// consults it.
	FitSample int
	// Executor runs the paper's MapReduce jobs — on a Source.Points run
	// only stage 2, whose stage 1 hashes in the driver where the rows are:
	// a mapreduce.Local, or a TCP Master whose workers may live in other
	// OS processes (start them with cmd/dascworker). Nil runs a Source.Points run on the
	// in-process pool and a Source.Dir run on a mapreduce.Local. Only Run
	// reads it.
	Executor mapreduce.Executor
	// MemoryBudget bounds, in bytes, the similarity storage the
	// in-process pool holds at once — the paper's §5.1 "the data
	// partitions (or splits) are incrementally processed, split by split":
	// buckets are solved in sequential waves whose planned footprint fits
	// it, and one bucket larger than the budget in a wave of its own (raise
	// M if Result.PeakGramBytes shows one). 0 means one wave. Negative, or
	// set with an Executor or a Source.Dir, is ErrBadConfig: the MapReduce
	// runners do not bound their reducers by it. Only Run reads it.
	MemoryBudget int64
}

// DefaultFitSample is a Source.Dir run's plan-fitting sample size: a
// few thousand rows pin LSH valley thresholds and the median bandwidth
// closely while keeping the fit working set independent of N.
const DefaultFitSample = 4096

// DefaultEmbedCutoff is the bucket size at which the embedded solve
// starts paying: below it the dense engine's Gram + eigensolve is
// cheaper than the transform + k-means at useful d′.
const DefaultEmbedCutoff = 256

// Solver labels for buckets that never reach the spectral engine; the
// engine's own choices are reported as the spectral.Solver* constants.
const (
	// SolverTrivial marks buckets short-circuited without an eigensolve
	// (single point, single cluster, or one cluster per point).
	SolverTrivial = "trivial"
	// SolverKMeansFallback marks buckets whose spectral solve failed and
	// were clustered by K-means on the raw points instead.
	SolverKMeansFallback = "kmeans-fallback"
)

// BucketReport describes one processed bucket.
type BucketReport struct {
	// Signature identifies the bucket.
	Signature uint64
	// Size is the number of points.
	Size int
	// K is the number of clusters extracted from this bucket.
	K int
	// GramBytes is the bucket's sub-similarity storage: 4 bytes/entry
	// for dense solves, the measured CSR footprint for sparse ones. A
	// trivial bucket (SolverTrivial: K = 1, or one cluster per point) is
	// billed the dense 4·Size² although the solver never builds it,
	// because the paper's reducer would.
	GramBytes int64
	// Solver names the eigensolver the engine chose for this bucket
	// (spectral.Solver* constants, SolverTrivial, or SolverKMeansFallback).
	Solver string
	// NNZ is the number of stored similarity entries the solver saw.
	NNZ int64
	// Fill is NNZ divided by Size².
	Fill float64
	// SolveNanos is the bucket's solve wall time in nanoseconds.
	SolveNanos int64
}

// Result reports a DASC run.
type Result struct {
	// Labels[i] is the global cluster of point i. Cluster ids are
	// contiguous from 0; clusters never span buckets.
	Labels []int
	// Clusters is the total number of clusters produced.
	Clusters int
	// Buckets describes the processed partition.
	Buckets []BucketReport
	// GramBytes is the total approximated-Gram storage (Figure 6b), the
	// sum of the buckets' GramBytes — trivial buckets' 4·Size² included,
	// though no trivial bucket is built (DESIGN.md has the shares).
	GramBytes int64
	// SignatureBits is the M actually used.
	SignatureBits int
	// MergeRadius is the Hamming merge radius actually used.
	MergeRadius int
	// SolveNanos is the summed per-bucket solve wall time (the solve
	// stage's total CPU-side work, independent of scheduling overlap).
	SolveNanos int64
	// Solvers counts processed buckets by solver name.
	Solvers map[string]int
	// Elapsed is the measured wall-clock time.
	Elapsed time.Duration
	// MapReduce aggregates the executor's counters across both
	// MapReduce stages (task/record totals, shuffle size, and — for the
	// TCP executor — wire traffic and codec time). Nil on the in-process
	// pool.
	MapReduce *mapreduce.Counters
	// Waves is the number of sequential batches the in-process pool
	// solved the buckets in (1 without a MemoryBudget); zero on the
	// MapReduce runners.
	Waves int
	// PeakGramBytes is the largest planned similarity storage the
	// in-process pool held at once — the quantity MemoryBudget bounds;
	// zero on the MapReduce runners.
	PeakGramBytes int64
}

// ErrBadConfig reports unusable configuration.
var ErrBadConfig = errors.New("core: bad config")

// resolve fills config defaults for a dataset of n points and validates
// the front-end and data-plane dials; the solve dials (K, SparseCutoff,
// Epsilon, EmbedDim, EmbedCutoff) are held to account by
// newBucketSolver, which every caller of resolve goes on to call.
func (c Config) resolve(n int) (Config, int, error) {
	if n == 0 {
		return c, 0, errors.New("core: empty dataset")
	}
	if c.K == 0 {
		c.K = analytic.CategoryLaw(n)
	}
	if c.M == 0 {
		c.M = lsh.DefaultM(n)
	}
	if c.M < 1 || c.M > lsh.MaxBits {
		return c, 0, fmt.Errorf("%w: M=%d", ErrBadConfig, c.M)
	}
	radius := 1 // paper default: P = M-1 permits one differing bit
	switch {
	case c.P == -1:
		radius = -1 // merging disabled
	case c.P == 0:
		radius = 1
	case c.P < -1:
		return c, 0, fmt.Errorf("%w: P=%d below -1", ErrBadConfig, c.P)
	case c.P > c.M:
		return c, 0, fmt.Errorf("%w: P=%d > M=%d", ErrBadConfig, c.P, c.M)
	default:
		radius = c.M - c.P
	}
	if c.Sigma < 0 {
		return c, 0, fmt.Errorf("%w: Sigma=%g negative", ErrBadConfig, c.Sigma)
	}
	if c.Tables == 0 {
		c.Tables = 1
	}
	if c.Tables < 1 || c.Tables > lsh.MaxTables {
		return c, 0, fmt.Errorf("%w: Tables=%d out of range [1,%d]", ErrBadConfig, c.Tables, lsh.MaxTables)
	}
	if c.ProbeRadius < 0 || c.ProbeRadius > lsh.MaxBits {
		return c, 0, fmt.Errorf("%w: ProbeRadius=%d out of range [0,%d]", ErrBadConfig, c.ProbeRadius, lsh.MaxBits)
	}
	if c.MaxMergedBucket < 0 {
		return c, 0, fmt.Errorf("%w: MaxMergedBucket=%d negative", ErrBadConfig, c.MaxMergedBucket)
	}
	if c.EmbedDim > 0 && c.EmbedCutoff == 0 {
		c.EmbedCutoff = DefaultEmbedCutoff
	}
	if c.SpillBytes < 0 {
		return c, 0, fmt.Errorf("%w: SpillBytes=%d negative", ErrBadConfig, c.SpillBytes)
	}
	if c.FitSample < 0 {
		return c, 0, fmt.Errorf("%w: FitSample=%d negative", ErrBadConfig, c.FitSample)
	}
	if c.FitSample == 0 {
		c.FitSample = DefaultFitSample
	}
	return c, radius, nil
}

// localRunner is the in-process backend: signatures are hashed inline
// and buckets are solved on lsh.EachBucket, in waves whose planned
// similarity storage fits budget — 0 means unbounded, one wave. Labels
// are assembled in canonical partition order (the shared assembly path),
// so they do not depend on the packing.
type localRunner struct {
	points *matrix.Dense
	budget int64
	// peak and waves are written by solve and reported on the result.
	peak  int64
	waves int
}

func (*localRunner) name() string { return "local" }

func (r *localRunner) report(res *Result) {
	res.Waves, res.PeakGramBytes = r.waves, r.peak
}

func (r *localRunner) signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	return hashPoints(ctx, p, r.points)
}

// hashPoints is stage 1 over a driver-resident matrix, on the in-process
// pool and on an Executor alike: the ensemble hashes every row under
// every table, in parallel for large inputs, with identical output at
// any worker count.
func hashPoints(ctx context.Context, p *Plan, points *matrix.Dense) (*lsh.SignatureSet, error) {
	sigs, err := p.Ensemble.HashContext(ctx, points)
	if err != nil {
		return nil, fmt.Errorf("core: signatures: %w", err)
	}
	return sigs, nil
}

func (r *localRunner) solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]bucketSolution, error) {
	// Pack the buckets into waves first-fit-decreasing at their planned
	// footprint: the dense worst case (a sparse solve only shrinks what
	// is resident), or the embedded rows. A bucket larger than the budget
	// gets a wave to itself.
	var waves [][]int
	var loads []int64
	floats := make([]int, len(part.Buckets))
	for _, bi := range part.LPTOrder() {
		ni := len(part.Buckets[bi].Indices)
		pl := p.solver.plan(ni)
		need := pl.Bytes
		floats[bi] = pl.scratchLen(ni)
		w := 0
		if r.budget > 0 {
			for w < len(waves) && loads[w]+need > r.budget {
				w++
			}
		}
		if w == len(waves) {
			waves = append(waves, nil)
			loads = append(loads, 0)
		}
		waves[w] = append(waves[w], bi)
		loads[w] += need
	}
	r.waves = len(waves)

	// One loop per wave: a solve holds its plan's Bytes (within 8·Ni), so
	// a wave's load bounds what its solves hold at once. The buffers
	// themselves are lsh.EachBucket's: mapped at the plan's scratchLen
	// for the wave's first bucket a goroutine takes, and freed when the
	// wave ends.
	sols := make([]bucketSolution, len(part.Buckets))
	need := func(bi int) int { return floats[bi] }
	for w, wave := range waves {
		r.peak = max(r.peak, loads[w])
		err := lsh.EachBucket(ctx, wave, need, func(bi int, scratch *[]float64) error {
			b := part.Buckets[bi]
			sol, err := p.solver.solve(bucket{points: r.points, rows: b.Indices, ids: b.Indices}, scratch)
			if err != nil {
				return fmt.Errorf("bucket %x: %w", b.Signature, err)
			}
			sols[bi] = sol
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: solve: %w", err)
		}
	}
	return sols, nil
}

// BucketK returns the number of clusters assigned to a bucket of size
// ni out of n points when the dataset-wide target is k: the bucket's
// proportional share, at least 1 and at most ni.
func BucketK(k, ni, n int) int {
	ki := int(math.Round(float64(k) * float64(ni) / float64(n)))
	if ki < 1 {
		ki = 1
	}
	if ki > ni {
		ki = ni
	}
	return ki
}
