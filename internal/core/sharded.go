package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/kmeans"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
	"repro/internal/spectral"
)

// This file provides the out-of-core MapReduce formulation of DASC:
// the input matrix lives in a shard directory (internal/shard) instead
// of driver memory, and both stages' workers demand-read only the rows
// their tasks touch. The driver's resident footprint is the fit sample
// plus MapReduce bookkeeping — never the full matrix — so dataset size
// is bounded by disk, not RAM. Combined with Config.SpillBytes this is
// the data plane of the first million-point runs.
//
// Stage 1 maps over shard row ranges (the HDFS-input-split analogue):
// each record names a [start, start+count) range, the mapper streams
// exactly those rows from its process-local shard reader and emits the
// usual (table:signature, index) records. Stage 2 ships only bucket
// index lists; the reducer hydrates each bucket's rows from the shards
// and runs the same solve engine as every other driver. With
// Config.FitSample >= N the plan fit sees every row and the labels are
// bit-identical to the in-memory drivers'.

// Names of the factory-registered sharded jobs.
const (
	ShardedLSHJobName     = "dasc/sharded-lsh"
	ShardedClusterJobName = "dasc/sharded-cluster"
)

func init() {
	mapreduce.RegisterFactory(ShardedLSHJobName, newShardedLSHJob)
	mapreduce.RegisterFactory(ShardedClusterJobName, newShardedClusterJob)
	// Workers ship this process-cumulative meter back on TCP results so
	// a master in another process can account our shard reads.
	mapreduce.SetShardMeter(workerShardBytes)
}

// shardedLSHConf is the stage-1 configuration: the shard directory and
// every table's fitted hash parameters.
type shardedLSHConf struct {
	Dir    string
	Tables []lshTable
}

// shardedClusterConf is the stage-2 configuration: the shard directory
// plus the same clustering parameters the shipped job carries. Workers
// refit the kernel embedding from (Cols, EmbedDim, Sigma, Seed) — a
// pure function, so every worker holds bitwise the same feature map.
type shardedClusterConf struct {
	Dir string
	C   clusterConf
}

// shardReaders caches one open shard.Reader per directory for the
// lifetime of the worker process — the HDFS-block-cache analogue. The
// readers are never closed (their handles die with the process, and
// every task of every job over the same input shares them); reads go
// through ReadAt, so one reader serves concurrent reduce tasks.
var shardReaders sync.Map // dir -> *shard.Reader

// cachedShardReader returns the process-wide reader for dir, opening
// it on first use. A racing open closes the loser.
func cachedShardReader(dir string) (*shard.Reader, error) {
	if v, ok := shardReaders.Load(dir); ok {
		return v.(*shard.Reader), nil
	}
	r, err := shard.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("core: shard input: %w", err)
	}
	if v, loaded := shardReaders.LoadOrStore(dir, r); loaded {
		if cerr := r.Close(); cerr != nil {
			return nil, fmt.Errorf("core: shard input: %w", cerr)
		}
		return v.(*shard.Reader), nil
	}
	return r, nil
}

// workerShardBytes sums the shard bytes read through this process's
// reader cache, for the driver's ShardReadBytes delta accounting.
func workerShardBytes() int64 {
	var total int64
	shardReaders.Range(func(_, v interface{}) bool {
		total += v.(*shard.Reader).BytesRead()
		return true
	})
	return total
}

// workerShardIOStats additionally sums the ReadAt-call and
// coalesced-read counters across the reader cache.
func workerShardIOStats() (bytes, ops, coalesced int64) {
	shardReaders.Range(func(_, v interface{}) bool {
		r := v.(*shard.Reader)
		bytes += r.BytesRead()
		ops += r.ReadOps()
		coalesced += r.CoalescedReads()
		return true
	})
	return bytes, ops, coalesced
}

// encodeRowRange / decodeRowRange pack a stage-1 input record: one
// half-open shard row range [start, start+count).
func encodeRowRange(start, count int) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], uint32(start))
	binary.LittleEndian.PutUint32(buf[4:], uint32(count))
	return buf
}

func decodeRowRange(buf []byte) (start, count int, err error) {
	if len(buf) != 8 {
		return 0, 0, fmt.Errorf("core: row range payload length %d", len(buf))
	}
	return int(binary.LittleEndian.Uint32(buf[0:])), int(binary.LittleEndian.Uint32(buf[4:])), nil
}

// newShardedLSHJob rebuilds stage 1 from its configuration: the mapper
// streams its record's row range from the local shard reader, hashes
// every row with each table's shipped thresholds, and emits one
// (table:signature, index) record per table; the reducer is the
// identity grouping, exactly like the shipped LSH job.
func newShardedLSHJob(conf []byte) (*mapreduce.Job, error) {
	var c shardedLSHConf
	if err := gobDecode(conf, &c); err != nil {
		return nil, fmt.Errorf("core: sharded lsh conf: %w", err)
	}
	if c.Dir == "" || len(c.Tables) == 0 {
		return nil, fmt.Errorf("core: sharded lsh conf needs a directory and tables")
	}
	for t, tab := range c.Tables {
		if len(tab.Dims) != len(tab.Thresholds) || len(tab.Dims) == 0 {
			return nil, fmt.Errorf("core: sharded lsh conf table %d has %d dims, %d thresholds",
				t, len(tab.Dims), len(tab.Thresholds))
		}
	}
	return &mapreduce.Job{
		NumReducers: 4,
		SplitSize:   1, // one map task per shard row range
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			start, count, err := decodeRowRange(value)
			if err != nil {
				return err
			}
			r, err := cachedShardReader(c.Dir)
			if err != nil {
				return err
			}
			return r.Stream(start, count, func(idx int, row []float64) error {
				buf := make([]byte, 4)
				binary.LittleEndian.PutUint32(buf, uint32(idx))
				for t, tab := range c.Tables {
					var sig uint64
					for i, dim := range tab.Dims {
						if dim < 0 || dim >= len(row) {
							return fmt.Errorf("hash dimension %d outside vector of %d", dim, len(row))
						}
						if row[dim] > tab.Thresholds[i] {
							sig |= 1 << uint(i)
						}
					}
					emit(encodeSigKey(t, sig), buf)
				}
				return nil
			})
		},
		Reduce:         mapreduce.IdentityReduceFunc,
		IdentityReduce: true,
	}, nil
}

// newShardedClusterJob rebuilds stage 2: each reduce value is a bucket
// index list; the reducer hydrates exactly those rows from the shard
// reader, runs the per-bucket solve (same engine, same embed policy as
// the in-memory drivers), and emits per-point (index, localLabel, k)
// plus the bucket stats record.
func newShardedClusterJob(conf []byte) (*mapreduce.Job, error) {
	var sc shardedClusterConf
	if err := gobDecode(conf, &sc); err != nil {
		return nil, fmt.Errorf("core: sharded cluster conf: %w", err)
	}
	c := sc.C
	if sc.Dir == "" || c.N < 1 || c.K < 1 || c.Sigma <= 0 || c.EmbedDim < 0 ||
		(c.EmbedDim > 0 && c.EmbedCutoff < 1) {
		return nil, fmt.Errorf("core: sharded cluster conf %+v invalid", sc)
	}
	// The embedder is a pure function of (cols, d', sigma, seed): fit it
	// once per job build so every reduce task shares one feature map,
	// bitwise identical to the driver's.
	var emb embed.Embedder
	if c.EmbedDim > 0 {
		r, err := cachedShardReader(sc.Dir)
		if err != nil {
			return nil, err
		}
		emb, err = embed.NewRFF(r.Cols(), c.EmbedDim, c.Sigma, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: sharded embed: %w", err)
		}
	}
	return &mapreduce.Job{
		NumReducers: 4,
		Map:         mapreduce.IdentityMapFunc, // buckets are already formed
		IdentityMap: true,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			r, err := cachedShardReader(sc.Dir)
			if err != nil {
				return err
			}
			var scratch []float64
			for _, v := range values {
				indices, err := decodeIndicesConf(v, c.Compression)
				if err != nil {
					return err
				}
				pts, err := hydrateBucket(r, indices)
				if err != nil {
					return err
				}
				sol, err := clusterHydratedBucket(pts, c, indices, emb, &scratch)
				if err != nil {
					return err
				}
				for pos, idx := range indices {
					emit(key, encodeLabel(idx, sol.Labels[pos], sol.K))
				}
				emit(key, encodeBucketStatsConf(sol, c.Compression))
			}
			return nil
		},
	}, nil
}

// hydrateBucket demand-reads one bucket's rows into a dense ni×d
// block — the only rows of the matrix this reduce task ever touches.
// Bucket index lists are sorted ascending, so the coalescing gather
// turns a bucket that lands inside one shard into a few large reads.
func hydrateBucket(r *shard.Reader, indices []int) (*matrix.Dense, error) {
	pts := matrix.NewDense(len(indices), r.Cols())
	if err := r.ReadRowsInto(indices, pts.Row); err != nil {
		return nil, err
	}
	return pts, nil
}

// clusterHydratedBucket mirrors clusterOneBucket on a hydrated bucket:
// unlike the shipped job (whose embedded buckets arrive pre-embedded),
// the sharded reducer holds raw rows and the worker-side feature map,
// so it routes through the same engine config as the local driver —
// embed gate included — and the engine makes identical choices.
func clusterHydratedBucket(pts *matrix.Dense, c clusterConf, indices []int, emb embed.Embedder, scratch *[]float64) (BucketSolution, error) {
	ni := pts.Rows()
	ki := BucketK(c.K, ni, c.N)
	if ni == 1 || ki == 1 {
		return BucketSolution{Labels: make([]int, ni), K: 1, Solver: SolverTrivial}, nil
	}
	if ki == ni {
		labels := make([]int, ni)
		for i := range labels {
			labels[i] = i
		}
		return BucketSolution{Labels: labels, K: ni, Solver: SolverTrivial}, nil
	}
	all := make([]int, ni)
	for i := range all {
		all[i] = i
	}
	ecfg := spectral.EngineConfig{
		K:            ki,
		Seed:         c.Seed + int64(indices[0]),
		SparseCutoff: c.SparseCutoff,
		Epsilon:      c.Epsilon,
		Embedder:     emb,
		EmbedCutoff:  c.EmbedCutoff,
	}
	res, stats, err := spectral.ClusterBucket(pts, all, kernel.NewGaussian(c.Sigma), ecfg, scratch)
	if err == nil {
		return BucketSolution{
			Labels: res.Labels, K: ki,
			Solver: stats.Solver, NNZ: stats.NNZ, Fill: stats.Fill,
			SolveNanos: stats.Nanos, GramBytes: stats.GramBytes,
		}, nil
	}
	km, kerr := kmeans.Run(pts, kmeans.Config{K: ki, Seed: c.Seed})
	if kerr != nil {
		return BucketSolution{}, fmt.Errorf("spectral (%v) and kmeans fallback (%v) both failed", err, kerr)
	}
	return BucketSolution{
		Labels: km.Labels, K: ki,
		Solver: SolverKMeansFallback, NNZ: stats.NNZ, Fill: stats.Fill,
		SolveNanos: stats.Nanos, GramBytes: stats.GramBytes,
	}, nil
}

// shardPoints adapts a shard.Reader to lsh.PointSource for
// margin-ordered probing. Row allocates per call; the partition stage
// only consults it when ProbeRadius > 0, and a read failure surfaces
// through err (Row itself cannot fail, so it returns a zero row and
// the driver checks err after partitioning).
type shardPoints struct {
	r   *shard.Reader
	err error
}

func (s *shardPoints) Rows() int { return s.r.Rows() }

func (s *shardPoints) Row(i int) []float64 {
	row, err := s.r.ReadRow(i, nil)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return make([]float64, s.r.Cols())
	}
	return row
}

// readFitSample reads min(FitSample, N) evenly spaced rows into a
// dense fit matrix. With FitSample >= N this is the full matrix in row
// order, which makes every downstream fit identical to the in-memory
// drivers'.
func readFitSample(r *shard.Reader, fitSample int) (*matrix.Dense, error) {
	n := r.Rows()
	m := fitSample
	if m > n {
		m = n
	}
	sample := matrix.NewDense(m, r.Cols())
	indices := make([]int, m)
	for i := 0; i < m; i++ {
		indices[i] = i * n / m // evenly spaced; identity i==idx when m == n
	}
	if err := r.ReadRowsInto(indices, sample.Row); err != nil {
		return nil, err
	}
	return sample, nil
}

// ClusterMapReduceSharded runs DASC's two MapReduce stages against a
// shard directory written by internal/shard, never materializing the
// input matrix in driver memory: stage-1 mappers stream their assigned
// shard row ranges and stage-2 reducers demand-read only the rows their
// buckets reference. The plan (LSH thresholds, kernel bandwidth,
// feature map) is fitted from Config.FitSample evenly spaced rows;
// FitSample >= N makes the labels bit-identical to the in-memory
// drivers. Workers may live in other OS processes provided they can
// open the same shard directory (start them with cmd/dascworker on a
// shared filesystem).
func ClusterMapReduceSharded(dir string, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return ClusterMapReduceShardedContext(context.Background(), dir, cfg, exec)
}

// ClusterMapReduceShardedContext is ClusterMapReduceSharded with
// cancellation.
func ClusterMapReduceShardedContext(ctx context.Context, dir string, cfg Config, exec mapreduce.Executor) (_ *Result, err error) {
	start := time.Now()
	startShardBytes, startShardOps, startShardCoalesced := workerShardIOStats()
	// The driver uses the same process-wide cached reader as in-process
	// workers: one set of handles per directory, shared by the fit
	// sample, probe reads, and every local reduce task.
	reader, err := cachedShardReader(dir)
	if err != nil {
		return nil, err
	}
	n := reader.Rows()
	cfg, radius, err := cfg.resolve(n)
	if err != nil {
		return nil, err
	}

	// Plan fit from the sample.
	sample, err := readFitSample(reader, cfg.FitSample)
	if err != nil {
		return nil, fmt.Errorf("core: sharded fit sample: %w", err)
	}
	ens, err := lsh.FitEnsemble(sample, lsh.Config{
		M: cfg.M, Policy: cfg.Policy, Bins: cfg.Bins, Seed: cfg.Seed,
	}, lsh.EnsembleConfig{
		Tables:          cfg.Tables,
		ProbeRadius:     cfg.ProbeRadius,
		MaxMergedBucket: cfg.MaxMergedBucket,
	})
	if err != nil {
		return nil, fmt.Errorf("core: lsh: %w", err)
	}
	sigma := cfg.Sigma
	if sigma <= 0 {
		sigma = kernel.MedianSigma(sample, 512, cfg.Seed)
	}
	hashers := make([]*lsh.Hasher, 0, len(ens.Families()))
	for t, f := range ens.Families() {
		h, ok := f.(*lsh.Hasher)
		if !ok {
			return nil, fmt.Errorf("core: table %d is %T, the sharded driver needs the fitted hasher", t, f)
		}
		hashers = append(hashers, h)
	}

	ctr := &mapreduce.Counters{}

	// Stage 1: signatures from shard row ranges.
	lshBlob, err := gobEncode(shardedLSHConf{Dir: dir, Tables: tablesConf(hashers)})
	if err != nil {
		return nil, err
	}
	lshJob, err := newShardedLSHJob(lshBlob)
	if err != nil {
		return nil, err
	}
	lshJob.Name = ShardedLSHJobName
	lshJob.Conf = lshBlob
	lshJob.SpillBytes = cfg.SpillBytes
	lshJob.Compress = cfg.Compression
	ranges := reader.Ranges()
	input := make([]mapreduce.Pair, len(ranges))
	for i, rg := range ranges {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: encodeRowRange(rg[0], rg[1]-rg[0])}
	}
	sigPairs, sctr, err := mapreduce.RunWithContext(ctx, exec, lshJob, input)
	if err != nil {
		return nil, fmt.Errorf("core: lsh stage: %w", err)
	}
	ctr.Add(sctr)
	sigs, err := signaturesFromPairs(sigPairs, n, len(hashers))
	if err != nil {
		return nil, err
	}

	// Stage 2 input: bucket-merge on the driver, exactly like every
	// other runner. Margin-ordered probing reads rows on demand through
	// the shard adapter; without probing no row is touched.
	var psrc lsh.PointSource
	var sp *shardPoints
	if cfg.ProbeRadius > 0 {
		sp = &shardPoints{r: reader}
		psrc = sp
	}
	part, err := ens.Partition(psrc, sigs, radius)
	if err != nil {
		return nil, fmt.Errorf("core: sharded: %w", err)
	}
	if sp != nil && sp.err != nil {
		return nil, fmt.Errorf("core: sharded probe rows: %w", sp.err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: sharded: %w", err)
	}

	clusterBlob, err := gobEncode(shardedClusterConf{Dir: dir, C: clusterConf{
		N: n, K: cfg.K, Sigma: sigma, Seed: cfg.Seed,
		SparseCutoff: cfg.SparseCutoff, Epsilon: cfg.Epsilon,
		EmbedDim: cfg.EmbedDim, EmbedCutoff: cfg.EmbedCutoff,
		Compression: cfg.Compression,
	}})
	if err != nil {
		return nil, err
	}
	clusterJob, err := newShardedClusterJob(clusterBlob)
	if err != nil {
		return nil, err
	}
	clusterJob.Name = ShardedClusterJobName
	clusterJob.Conf = clusterBlob
	clusterJob.SpillBytes = cfg.SpillBytes
	clusterJob.Compress = cfg.Compression
	stage2 := make([]mapreduce.Pair, len(part.Buckets))
	for bi, b := range part.Buckets {
		stage2[bi] = mapreduce.Pair{
			Key:   fmt.Sprintf("%016x", b.Signature),
			Value: encodeIndicesConf(b.Indices, cfg.Compression),
		}
	}
	labelPairs, cctr, err := mapreduce.RunWithContext(ctx, exec, clusterJob, stage2)
	if err != nil {
		return nil, fmt.Errorf("core: cluster stage: %w", err)
	}
	ctr.Add(cctr)
	sols, err := solutionsFromLabelPairs(part, labelPairs, n, cfg.Compression)
	if err != nil {
		return nil, err
	}

	res, err := assembleSolutions(part, sols, n)
	if err != nil {
		return nil, fmt.Errorf("core: sharded: %w", err)
	}
	res.SignatureBits = cfg.M
	res.MergeRadius = radius
	res.Elapsed = time.Since(start)
	// Process-local shard-read accounting: exact when the executor's
	// workers share this process; external TCP worker processes report
	// their byte meter on result frames, which the master already folded
	// into the stage counters (see mapreduce.Counters.ShardReadBytes).
	endShardBytes, endShardOps, endShardCoalesced := workerShardIOStats()
	ctr.ShardReadBytes += endShardBytes - startShardBytes
	ctr.ShardReadOps += endShardOps - startShardOps
	ctr.ShardCoalescedReads += endShardCoalesced - startShardCoalesced
	res.MapReduce = ctr
	return res, nil
}

// tablesConf extracts every fitted hasher's wire parameters.
func tablesConf(hashers []*lsh.Hasher) []lshTable {
	out := make([]lshTable, len(hashers))
	for t, h := range hashers {
		out[t] = lshTable{Dims: h.Dimensions(), Thresholds: h.Thresholds()}
	}
	return out
}
