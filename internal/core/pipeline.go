package core

// This file is the canonical DASC plan: every public driver is a thin
// adapter over one four-stage dataflow —
//
//	signature   : hash every point to an M-bit LSH signature,
//	bucket-merge: group by signature and merge near-duplicates (Eq. 6),
//	solve       : per-bucket sub-Gram + spectral clustering,
//	assembly    : offset per-bucket labels into one global labeling.
//
// The stages that admit different execution strategies (signature and
// solve) are behind the Runner interface — where the work runs; what a
// bucket's solve is belongs to the plan's bucketSolver (solver.go), which
// every runner calls. Bucket-merge and assembly are pure driver-side
// functions shared by every runner, so the drivers cannot drift apart.
// Runners receive a context.Context and must return promptly with its
// error once it is cancelled.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// Plan is the resolved execution plan shared by all pipeline stages:
// the dataset, the defaulted configuration, the fitted hash ensemble,
// the merge radius, and the kernel bandwidth.
type Plan struct {
	// Points is the dataset, one row per point; nil in the sharded
	// driver's plan, which is fitted on a sample and never holds it.
	Points *matrix.Dense
	// Cfg is the configuration with every default resolved (K, M,
	// Tables filled in).
	Cfg Config
	// Radius is the Hamming merge radius derived from P and M.
	Radius int
	// Sigma is the resolved Gaussian kernel bandwidth.
	Sigma float64
	// Ensemble is the fitted multi-table hash front-end; with
	// Tables=1 and ProbeRadius=0 it degenerates to the paper's
	// single-signature partition.
	Ensemble *lsh.Ensemble
	// Embedder is the fitted random Fourier feature map of the
	// embed-and-conquer solve path; non-nil exactly when Cfg.EmbedDim > 0.
	// It is a pure function of (dataset dims, EmbedDim, Sigma, Seed), so
	// every driver fits bitwise the same map.
	Embedder *embed.RFF
	// solver is the solve stage, built from Cfg, the dataset shape and
	// Sigma; Sigma and Embedder above are its kernel's and its map.
	solver *bucketSolver
}

// Hashers returns the fitted span/threshold hasher of every ensemble
// table, or an error when any table uses a different family — the
// distributed runners ship these parameters to worker processes.
func (p *Plan) Hashers() ([]*lsh.Hasher, error) {
	fams := p.Ensemble.Families()
	hashers := make([]*lsh.Hasher, len(fams))
	for t, f := range fams {
		h, ok := f.(*lsh.Hasher)
		if !ok {
			return nil, fmt.Errorf("core: table %d is %T, distributed runners need the fitted hasher", t, f)
		}
		hashers[t] = h
	}
	return hashers, nil
}

// BucketSolution is the solve stage's output for one bucket: local
// cluster ids per bucket point (bucket order), the number of clusters
// extracted, and the solve engine's accounting. Solver/NNZ/Fill/
// SolveNanos/GramBytes mirror the BucketReport fields; a zero GramBytes
// makes assembly fall back to the bucket's planned footprint.
type BucketSolution struct {
	Labels     []int
	K          int
	Solver     string
	NNZ        int64
	Fill       float64
	SolveNanos int64
	GramBytes  int64
}

// Runner executes the backend-specific pipeline stages. Implementations
// exist for the in-process pool (optionally in memory-bounded waves) and
// MapReduce (one runner over two row sources).
type Runner interface {
	// Name identifies the runner in errors.
	Name() string
	// NeedsHasher reports whether the runner requires the fitted
	// span/threshold Hasher (distributed runners ship its parameters);
	// such runners cannot run a custom Config.Family.
	NeedsHasher() bool
	// Signatures computes the per-point per-table LSH signatures
	// (stage 1).
	Signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error)
	// Solve clusters every bucket of the partition (stage 3), returning
	// one solution per bucket in partition order. Assembly rejects a
	// solution whose K is not the bucket's planned share.
	Solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]BucketSolution, error)
}

// NewPlan resolves the configuration against the dataset and fits the
// hash ensemble, the kernel bandwidth and the solve stage. needsHasher
// asks for the paper's span/threshold hashers (the distributed drivers'
// jobs ship hash thresholds) and makes a set Config.Family an error.
func NewPlan(points *matrix.Dense, cfg Config, needsHasher bool) (*Plan, error) {
	cfg, radius, err := cfg.resolve(points.Rows())
	if err != nil {
		return nil, err
	}
	return fitPlan(points, points.Rows(), cfg, radius, needsHasher)
}

// fitPlan is NewPlan past the resolution of cfg: the sharded driver
// resolves against the dataset's n and fits on a sample of it.
func fitPlan(points *matrix.Dense, n int, cfg Config, radius int, needsHasher bool) (*Plan, error) {
	if cfg.Family != nil && needsHasher {
		return nil, fmt.Errorf("%w: Family is set, but the MapReduce drivers and EMRFlow ship the fitted span/threshold hash to their workers and can run no other", ErrBadConfig)
	}
	ens, err := planEnsemble(points, cfg)
	if err != nil {
		return nil, err
	}
	p := &Plan{Points: points, Radius: radius, Ensemble: ens}
	if cfg.Family != nil {
		cfg.M = ens.Bits()
		cfg.Tables = ens.Tables()
	}
	p.Sigma = cfg.Sigma
	if p.Sigma <= 0 {
		p.Sigma = kernel.MedianSigma(points, 512, cfg.Seed)
	}
	solver, err := newBucketSolver(policyOf(cfg, n, points.Cols(), p.Sigma))
	if err != nil {
		return nil, err
	}
	p.solver, p.Embedder = solver, solver.emb
	p.Cfg = cfg
	return p, nil
}

// planEnsemble fits the hash front-end of a resolved cfg: the paper's
// span/threshold hashers, or an ensemble grown out of cfg.Family. Every
// plan and every TuneM sweep step fits through it, so the sweep measures
// the partition the run builds.
func planEnsemble(points *matrix.Dense, cfg Config) (*lsh.Ensemble, error) {
	ecfg := lsh.EnsembleConfig{
		Tables:          cfg.Tables,
		ProbeRadius:     cfg.ProbeRadius,
		MaxMergedBucket: cfg.MaxMergedBucket,
	}
	var ens *lsh.Ensemble
	var err error
	if cfg.Family != nil {
		ens, err = lsh.EnsembleFrom(cfg.Family, ecfg)
	} else {
		ens, err = lsh.FitEnsemble(points, lsh.Config{
			M: cfg.M, Policy: cfg.Policy, Bins: cfg.Bins, Seed: cfg.Seed,
		}, ecfg)
	}
	if err != nil {
		return nil, fmt.Errorf("core: lsh: %w", err)
	}
	return ens, nil
}

// RunPipeline executes the canonical DASC dataflow on the given runner.
// Every public driver of a resident matrix delegates here, so for a
// fixed seed they produce identical labels regardless of the execution
// backend.
func RunPipeline(ctx context.Context, points *matrix.Dense, cfg Config, r Runner) (*Result, error) {
	start := time.Now()
	p, err := NewPlan(points, cfg, r.NeedsHasher())
	if err != nil {
		return nil, err
	}
	return runStages(ctx, start, p, points, r)
}

// runStages is the stage sequence of every driver, past the plan fit
// (start is when the driver began, for Result.Elapsed): probe is the row
// access of margin-ordered probing, nil when the plan does not probe.
func runStages(ctx context.Context, start time.Time, p *Plan, probe lsh.PointSource, r Runner) (*Result, error) {
	n := p.solver.pol.N // not p.Points.Rows(): the sharded plan is fitted on a sample
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}

	// Stage 1: per-table signatures.
	sigs, err := r.Signatures(ctx, p)
	if err != nil {
		return nil, err
	}
	if sigs.Len() != n || sigs.NumTables() != p.Ensemble.Tables() {
		return nil, fmt.Errorf("core: %s produced %d signatures x %d tables for %d points x %d tables",
			r.Name(), sigs.Len(), sigs.NumTables(), n, p.Ensemble.Tables())
	}

	// Stage 2: bucket-merge, always on the driver (the paper merges
	// "before applying the reducer" of its second job). The ensemble
	// merges within each table (Eq. 6), then across tables and probe
	// hits; with Tables=1 and ProbeRadius=0 this is byte-identical to
	// the single-signature partition.
	part, err := p.Ensemble.Partition(probe, sigs, p.Radius)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}

	// Stage 3: per-bucket solve.
	sols, err := r.Solve(ctx, p, part)
	if err != nil {
		return nil, err
	}

	// Stage 4: global label assembly.
	res, err := assembleSolutions(p.solver, part, sols)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.Name(), err)
	}
	res.SignatureBits = p.Cfg.M
	res.MergeRadius = p.Radius
	res.Elapsed = time.Since(start)
	if cs, ok := r.(counterSource); ok {
		res.MapReduce = cs.MapReduceCounters()
	}
	return res, nil
}

// counterSource is implemented by runners that execute through a
// mapreduce.Executor and can report the aggregated job counters.
type counterSource interface {
	MapReduceCounters() *mapreduce.Counters
}

// assembleSolutions is the single label-assembly path: cluster-id
// offsets are assigned in partition order (ascending bucket signature),
// so every runner yields the same global labeling for the same
// per-bucket solutions.
func assembleSolutions(solver *bucketSolver, part *lsh.Partition, sols []BucketSolution) (*Result, error) {
	n := solver.pol.N
	if len(sols) != len(part.Buckets) {
		return nil, fmt.Errorf("%d solutions for %d buckets", len(sols), len(part.Buckets))
	}
	res := &Result{Labels: make([]int, n)}
	offset := 0
	for bi, b := range part.Buckets {
		s := sols[bi]
		if len(s.Labels) != len(b.Indices) {
			return nil, fmt.Errorf("bucket %x: %d labels for %d points", b.Signature, len(s.Labels), len(b.Indices))
		}
		// A bucket must produce exactly its proportional share, whoever
		// solved it: the offsets below are only unique if it did.
		pl := solver.plan(len(b.Indices))
		if s.K != pl.K {
			return nil, fmt.Errorf("bucket %x produced %d clusters, planned %d", b.Signature, s.K, pl.K)
		}
		for pos, idx := range b.Indices {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("bucket %x: point %d out of range", b.Signature, idx)
			}
			res.Labels[idx] = offset + s.Labels[pos]
		}
		gb := s.GramBytes
		if gb == 0 {
			gb = pl.Bytes // a Runner that keeps no accounting
		}
		res.Buckets = append(res.Buckets, BucketReport{
			Signature:  b.Signature,
			Size:       len(b.Indices),
			K:          s.K,
			GramBytes:  gb,
			Solver:     s.Solver,
			NNZ:        s.NNZ,
			Fill:       s.Fill,
			SolveNanos: s.SolveNanos,
		})
		res.GramBytes += gb
		res.SolveNanos += s.SolveNanos
		if s.Solver != "" {
			if res.Solvers == nil {
				res.Solvers = make(map[string]int)
			}
			res.Solvers[s.Solver]++
		}
		offset += s.K
	}
	res.Clusters = offset
	return res, nil
}
