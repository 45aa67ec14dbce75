package core

// This file is the canonical DASC plan: Run, the one driver, fits a plan
// and runs one four-stage dataflow —
//
//	signature   : hash every point to an M-bit LSH signature,
//	bucket-merge: group by signature and merge near-duplicates (Eq. 6),
//	solve       : per-bucket sub-Gram + spectral clustering,
//	assembly    : offset per-bucket labels into one global labeling.
//
// The stages that admit different execution strategies (signature and
// solve) are behind the runner interface — where the work runs; what a
// bucket's solve is belongs to the plan's bucketSolver (solver.go), which
// every runner calls. Bucket-merge and assembly are pure driver-side
// functions shared by every runner, so the routes cannot drift apart.
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
// the defaulted configuration, the fitted hash ensemble, the merge
// radius, and the kernel bandwidth. It holds no rows: the runner knows
// where they live.
type Plan struct {
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
	// every route fits bitwise the same map.
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

// bucketSolution is the solve stage's output for one bucket: local
// cluster ids per bucket point (bucket order), the number of clusters
// extracted, and the solve engine's accounting. Solver/NNZ/Fill/
// SolveNanos/GramBytes mirror the BucketReport fields; a zero GramBytes
// makes assembly fall back to the bucket's planned footprint.
type bucketSolution struct {
	Labels     []int
	K          int
	Solver     string
	NNZ        int64
	Fill       float64
	SolveNanos int64
	GramBytes  int64
}

// runner executes the backend-specific pipeline stages: the in-process
// pool (localRunner, optionally in memory-bounded waves) or the two
// MapReduce jobs (mrRunner, over either row source).
type runner interface {
	// name identifies the runner in errors.
	name() string
	// signatures computes the per-point per-table LSH signatures
	// (stage 1).
	signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error)
	// solve clusters every bucket of the partition (stage 3), returning
	// one solution per bucket in partition order. Assembly rejects a
	// solution whose K is not the bucket's planned share.
	solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]bucketSolution, error)
	// report writes the runner's own accounting onto the assembled
	// result. It copies values, so that a retained Result does not keep
	// the runner — and through it the dataset — alive.
	report(res *Result)
}

// NewPlan resolves the configuration against the dataset and fits the
// hash ensemble, the kernel bandwidth and the solve stage. needsHasher
// asks for the paper's span/threshold hashers (the MapReduce runner's
// jobs ship hash thresholds) and makes a set Config.Family an error.
func NewPlan(points *matrix.Dense, cfg Config, needsHasher bool) (*Plan, error) {
	cfg, radius, err := cfg.resolve(points.Rows())
	if err != nil {
		return nil, err
	}
	return fitPlan(points, points.Rows(), cfg, radius, needsHasher)
}

// fitPlan is NewPlan past the resolution of cfg: a Source.Dir run
// resolves against the dataset's n and fits on a sample of it.
func fitPlan(points *matrix.Dense, n int, cfg Config, radius int, needsHasher bool) (*Plan, error) {
	if cfg.Family != nil && needsHasher {
		return nil, fmt.Errorf("%w: Family is set, but the MapReduce drivers and EMRFlow ship the fitted span/threshold hash to their workers and can run no other", ErrBadConfig)
	}
	ens, err := planEnsemble(points, cfg)
	if err != nil {
		return nil, err
	}
	p := &Plan{Radius: radius, Ensemble: ens}
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

// Source names where a run's rows come from: exactly one of Points and
// Dir.
type Source struct {
	// Points is a resident matrix, one row per point.
	Points *matrix.Dense
	// Dir is a shard directory written by internal/shard, never
	// materialized in driver memory: stage-1 mappers stream their shard
	// row ranges and stage-2 reducers demand-read only the rows their
	// buckets reference, so dataset size is bounded by disk, not RAM
	// (combine with Config.SpillBytes for an out-of-core shuffle too).
	// The plan (LSH thresholds, kernel bandwidth, feature map) is fitted
	// from Config.FitSample evenly spaced rows. Workers may live in other
	// OS processes provided they can open the same directory.
	Dir string
}

// Run is DASC on src under cfg. Where the rows come from and
// cfg.Executor choose where the tasks run:
//
//	Source  Executor  runs on
//	Points  nil       the in-process pool, in waves within cfg.MemoryBudget
//	Points  set       stage 1 hashed in the driver, as the pool hashes it; the paper's
//	                  stage-2 job (§3.3) on the executor, rows inside its records
//	Dir     any       the paper's two jobs over the shard files, on a mapreduce.Local when nil
//
// Every route runs one plan through one dataflow, so for a fixed seed
// they label identically (a Dir run at FitSample >= N). The context is
// checked between stages and by every runner's solve; a cancelled run
// returns its error.
func Run(ctx context.Context, src Source, cfg Config) (*Result, error) {
	start := time.Now()
	// A MapReduce route cannot run a custom Config.Family: a Dir run
	// ships the fitted span/threshold hasher to its workers, and a Points
	// run on an Executor keeps the rule, so both sources take one Config.
	mrRoute := cfg.Executor != nil || src.Dir != ""
	switch {
	case (src.Points == nil) == (src.Dir == ""):
		return nil, fmt.Errorf("%w: a Source names exactly one of Points and Dir", ErrBadConfig)
	case cfg.MemoryBudget < 0:
		return nil, fmt.Errorf("%w: MemoryBudget=%d negative", ErrBadConfig, cfg.MemoryBudget)
	case cfg.MemoryBudget > 0 && mrRoute:
		return nil, fmt.Errorf("%w: MemoryBudget bounds the in-process pool; the MapReduce runners do not honour it", ErrBadConfig)
	}
	var (
		r      runner
		n      int
		shards *rowSource
		err    error
	)
	switch {
	case src.Dir != "":
		// The driver reads through the same process-wide cached reader as
		// in-process workers: one set of handles per directory, shared by
		// the fit sample, probe reads and every local task.
		if shards, err = openShardRows(src.Dir); err != nil {
			return nil, err
		}
		if cfg.Executor == nil {
			cfg.Executor = &mapreduce.Local{}
		}
		r, n = &mrRunner{exec: cfg.Executor, src: shards}, shards.r.Rows()
	case cfg.Executor != nil:
		r, n = &mrRunner{exec: cfg.Executor, src: &rowSource{points: src.Points}}, src.Points.Rows()
	default:
		r, n = &localRunner{points: src.Points, budget: cfg.MemoryBudget}, src.Points.Rows()
	}
	cfg, radius, err := cfg.resolve(n)
	if err != nil {
		return nil, err
	}

	// Only the fit rows, the probe rows and the read accounting depend on
	// the source. A Dir run fits on a sample and probes — margin-ordered
	// probing sweeps the rows in order — through a windowed cursor over
	// the shard reader; without probing its partition stage reads no row.
	fit, probe := src.Points, lsh.PointSource(src.Points)
	var ioBefore shardIO
	var cursor *probeCursor
	if shards != nil {
		ioBefore = shards.io()
		if fit, err = shards.fitSample(cfg.FitSample); err != nil {
			return nil, fmt.Errorf("core: sharded fit sample: %w", err)
		}
		probe = nil
		if cfg.ProbeRadius > 0 {
			cursor = newProbeCursor(shards.r)
			probe = cursor
		}
	}
	p, err := fitPlan(fit, n, cfg, radius, mrRoute)
	if err != nil {
		return nil, err
	}
	res, err := runStages(ctx, start, p, probe, r)
	if cursor != nil && cursor.err != nil {
		return nil, fmt.Errorf("core: sharded probe rows: %w", cursor.err)
	}
	if err != nil {
		return nil, err
	}
	if shards != nil {
		// This run's reader meters the driver and every in-process worker;
		// external TCP worker processes report their byte meter on result
		// frames, which the master already folded into the stage counters.
		io := shards.io()
		res.MapReduce.ShardReadBytes += io.bytes - ioBefore.bytes
		res.MapReduce.ShardReadOps += io.ops - ioBefore.ops
		res.MapReduce.ShardCoalescedReads += io.coalesced - ioBefore.coalesced
	}
	return res, nil
}

// Cluster is Run on resident points on the in-process pool. bench/ is
// its only caller.
func Cluster(points *matrix.Dense, cfg Config) (*Result, error) {
	return Run(context.Background(), Source{Points: points}, cfg)
}

// ClusterMapReduceShipped is Run on resident points on exec. bench/ is
// its only caller.
func ClusterMapReduceShipped(points *matrix.Dense, cfg Config, exec mapreduce.Executor) (*Result, error) {
	cfg.Executor = exec
	return Run(context.Background(), Source{Points: points}, cfg)
}

// ClusterMapReduceSharded is Run on a shard directory on exec. bench/
// is its only caller.
func ClusterMapReduceSharded(dir string, cfg Config, exec mapreduce.Executor) (*Result, error) {
	cfg.Executor = exec
	return Run(context.Background(), Source{Dir: dir}, cfg)
}

// runStages is Run's stage sequence past the plan fit (start is when
// the run began, for Result.Elapsed): probe is the row access of
// margin-ordered probing, nil when the plan does not probe.
func runStages(ctx context.Context, start time.Time, p *Plan, probe lsh.PointSource, r runner) (*Result, error) {
	n := p.solver.pol.N
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.name(), err)
	}

	// Stage 1: per-table signatures.
	sigs, err := r.signatures(ctx, p)
	if err != nil {
		return nil, err
	}
	if sigs.Len() != n || sigs.NumTables() != p.Ensemble.Tables() {
		return nil, fmt.Errorf("core: %s produced %d signatures x %d tables for %d points x %d tables",
			r.name(), sigs.Len(), sigs.NumTables(), n, p.Ensemble.Tables())
	}

	// Stage 2: bucket-merge, always on the driver (the paper merges
	// "before applying the reducer" of its second job). The ensemble
	// merges within each table (Eq. 6), then across tables and probe
	// hits; with Tables=1 and ProbeRadius=0 this is byte-identical to
	// the single-signature partition.
	part, err := p.Ensemble.Partition(probe, sigs, p.Radius)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.name(), err)
	}

	// Stage 3: per-bucket solve.
	sols, err := r.solve(ctx, p, part)
	if err != nil {
		return nil, err
	}

	// Stage 4: global label assembly.
	res, err := assembleSolutions(p.solver, part, sols)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", r.name(), err)
	}
	res.SignatureBits = p.Cfg.M
	res.MergeRadius = p.Radius
	res.Elapsed = time.Since(start)
	r.report(res)
	return res, nil
}

// assembleSolutions is the single label-assembly path: cluster-id
// offsets are assigned in partition order (ascending bucket signature),
// so every runner yields the same global labeling for the same
// per-bucket solutions.
func assembleSolutions(solver *bucketSolver, part *lsh.Partition, sols []bucketSolution) (*Result, error) {
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
