package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/kmeans"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/spectral"
)

// This file provides the closure-free MapReduce formulation of DASC:
// the jobs carry no pointers into the driver's memory, so TCP workers
// in *separate OS processes* can execute them — the full Hadoop
// deployment model. The hash parameters and clustering configuration
// travel as the job Conf (Hadoop's JobConf analogue) and the vectors
// travel inside the records (HDFS's input splits analogue).
//
// The factories are registered at package init, so any process that
// imports this package (e.g. cmd/dascworker) can serve the jobs.

// Names of the factory-registered jobs.
const (
	ShippedLSHJobName     = "dasc/shipped-lsh"
	ShippedClusterJobName = "dasc/shipped-cluster"
)

func init() {
	mapreduce.RegisterFactory(ShippedLSHJobName, newShippedLSHJob)
	mapreduce.RegisterFactory(ShippedClusterJobName, newShippedClusterJob)
}

// lshTable is one ensemble table's fitted hash parameters.
type lshTable struct {
	Dims       []int
	Thresholds []float64
}

// lshConf is the stage-1 configuration: every table's fitted hash
// parameters, so a remote worker can compute the full signature set.
type lshConf struct {
	Tables []lshTable
}

// clusterConf is the stage-2 configuration. SparseCutoff and Epsilon
// travel with the job so remote workers apply the driver's solve-engine
// policy; zero values reproduce the dense path exactly. EmbedDim > 0
// switches the stage-2 record format to kind-byte framing (see
// mapreduce.EmbedBucketKind): buckets the embed policy claims arrive as
// already-embedded d′-dim rows and the reducer runs only the k-means
// half, never refitting the feature map.
type clusterConf struct {
	N            int
	K            int
	Sigma        float64
	Seed         int64
	SparseCutoff int
	Epsilon      float64
	EmbedDim     int
	EmbedCutoff  int
	// Compression mirrors Config.Compression: stage-2 index lists,
	// solver-stats records, and embedded bucket records use their
	// compact encodings, selected by this flag on both sides (never
	// sniffed from the bytes). gob omits the zero value, so conf blobs
	// with it off are byte-identical to prior releases.
	Compression bool
}

// bucketPayload is one stage-2 record: a bucket's points shipped by
// value.
type bucketPayload struct {
	Indices []int32
	Dims    int
	Vectors []float64 // len(Indices) x Dims, row-major
}

func gobEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// newShippedLSHJob rebuilds stage 1 from its configuration: the mapper
// decodes each record's vector, hashes it with every table's shipped
// thresholds, and emits one (table:signature, index) record per table;
// the reducer is the identity grouping.
func newShippedLSHJob(conf []byte) (*mapreduce.Job, error) {
	var c lshConf
	if err := gobDecode(conf, &c); err != nil {
		return nil, fmt.Errorf("core: lsh conf: %w", err)
	}
	if len(c.Tables) == 0 {
		return nil, fmt.Errorf("core: lsh conf has no tables")
	}
	for t, tab := range c.Tables {
		if len(tab.Dims) != len(tab.Thresholds) || len(tab.Dims) == 0 {
			return nil, fmt.Errorf("core: lsh conf table %d has %d dims, %d thresholds",
				t, len(tab.Dims), len(tab.Thresholds))
		}
	}
	return &mapreduce.Job{
		NumReducers: 4,
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			idx, err := strconv.Atoi(key)
			if err != nil {
				return fmt.Errorf("bad point index %q: %w", key, err)
			}
			vec, err := decodeVector(value)
			if err != nil {
				return err
			}
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(idx))
			for t, tab := range c.Tables {
				var sig uint64
				for i, dim := range tab.Dims {
					if dim < 0 || dim >= len(vec) {
						return fmt.Errorf("hash dimension %d outside vector of %d", dim, len(vec))
					}
					if vec[dim] > tab.Thresholds[i] {
						sig |= 1 << uint(i)
					}
				}
				emit(encodeSigKey(t, sig), buf[:])
			}
			return nil
		},
		Reduce:         mapreduce.IdentityReduceFunc,
		IdentityReduce: true,
	}, nil
}

// newShippedClusterJob rebuilds stage 2: each reduce value is a bucket
// payload; the reducer reconstructs the bucket matrix, runs the
// per-bucket pipeline, and emits per-point (index, localLabel, k).
func newShippedClusterJob(conf []byte) (*mapreduce.Job, error) {
	var c clusterConf
	if err := gobDecode(conf, &c); err != nil {
		return nil, fmt.Errorf("core: cluster conf: %w", err)
	}
	if c.N < 1 || c.K < 1 || c.Sigma <= 0 || c.EmbedDim < 0 ||
		(c.EmbedDim > 0 && c.EmbedCutoff < 1) {
		return nil, fmt.Errorf("core: cluster conf %+v invalid", c)
	}
	return &mapreduce.Job{
		NumReducers: 4,
		Map:         mapreduce.IdentityMapFunc, // buckets arrive formed and encoded
		IdentityMap: true,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			for _, v := range values {
				var payload bucketPayload
				if c.EmbedDim > 0 {
					// Embed mode frames every stage-2 value with a kind byte
					// (bare gob can begin with any byte, so the discriminator
					// is only trustworthy when the conf promises it exists).
					if len(v) == 0 {
						return fmt.Errorf("empty stage-2 record")
					}
					switch v[0] {
					case mapreduce.EmbedBucketKind, mapreduce.PackedEmbedBucketKind:
						sol, indices, err := clusterEmbeddedShippedBucket(v, c)
						if err != nil {
							return err
						}
						for pos, idx := range indices {
							emit(key, encodeLabel(int(idx), sol.Labels[pos], sol.K))
						}
						emit(key, encodeBucketStatsConf(sol, c.Compression))
						continue
					case mapreduce.RawBucketKind:
						if err := gobDecode(v[1:], &payload); err != nil {
							return fmt.Errorf("bucket payload: %w", err)
						}
					default:
						return fmt.Errorf("stage-2 record kind %q", v[0])
					}
				} else if err := gobDecode(v, &payload); err != nil {
					return fmt.Errorf("bucket payload: %w", err)
				}
				ni := len(payload.Indices)
				if ni == 0 || payload.Dims < 1 || len(payload.Vectors) != ni*payload.Dims {
					return fmt.Errorf("bucket payload shape %d x %d vs %d values",
						ni, payload.Dims, len(payload.Vectors))
				}
				pts, err := matrix.NewDenseData(ni, payload.Dims, payload.Vectors)
				if err != nil {
					return err
				}
				sol, err := clusterShippedBucket(pts, c, payload.Indices)
				if err != nil {
					return err
				}
				for pos, idx := range payload.Indices {
					emit(key, encodeLabel(int(idx), sol.Labels[pos], sol.K))
				}
				emit(key, encodeBucketStatsConf(sol, c.Compression))
			}
			return nil
		},
	}, nil
}

// clusterEmbeddedShippedBucket is the reduce half of the embedded
// solve: decode the d′-dim rows the driver embedded map-side and run
// k-means on them, reporting the same stats the local engine's embedded
// path does. The feature map never travels — only its output — so the
// worker needs no kernel, no Gram scratch, and no eigensolver.
func clusterEmbeddedShippedBucket(record []byte, c clusterConf) (BucketSolution, []int32, error) {
	indices, dim, rows, err := mapreduce.ParseAnyEmbedBucket(record)
	if err != nil {
		return BucketSolution{}, nil, err
	}
	ni := len(indices)
	ki := BucketK(c.K, ni, c.N)
	if ki <= 1 || ki >= ni {
		// The driver only ships embedded records for 1 < ki < ni; anything
		// else means the record and the configuration disagree.
		return BucketSolution{}, nil, fmt.Errorf("embedded bucket of %d points plans %d clusters", ni, ki)
	}
	emb, err := matrix.NewDenseData(ni, dim, rows)
	if err != nil {
		return BucketSolution{}, nil, err
	}
	start := time.Now()
	res, err := spectral.ClusterEmbeddedRows(emb, spectral.Config{K: ki, Seed: c.Seed + int64(indices[0])})
	if err != nil {
		return BucketSolution{}, nil, fmt.Errorf("embedded bucket: %w", err)
	}
	return BucketSolution{
		Labels: res.Labels, K: ki,
		Solver:     spectral.SolverEmbedded,
		NNZ:        int64(ni) * int64(dim),
		Fill:       float64(dim) / float64(ni),
		SolveNanos: time.Since(start).Nanoseconds(),
		GramBytes:  embed.Bytes(ni, dim),
	}, indices, nil
}

// clusterShippedBucket mirrors clusterOneBucket on a shipped bucket,
// routing through the same solve engine so the worker applies the
// driver's sparse policy and reports the same per-bucket stats.
func clusterShippedBucket(pts *matrix.Dense, c clusterConf, indices []int32) (BucketSolution, error) {
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
	}
	var scratch []float64
	res, stats, err := spectral.ClusterBucket(pts, all, kernel.NewGaussian(c.Sigma), ecfg, &scratch)
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

// encodeVector packs a float64 vector little-endian.
func encodeVector(v []float64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	return buf
}

func decodeVector(buf []byte) ([]float64, error) {
	if len(buf) == 0 || len(buf)%8 != 0 {
		return nil, fmt.Errorf("core: vector payload length %d", len(buf))
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// ClusterMapReduceShipped runs DASC's two MapReduce stages with all
// data shipped through the records, so the executor's workers may live
// in other OS processes (start them with cmd/dascworker). Semantically
// identical to ClusterMapReduce.
func ClusterMapReduceShipped(points *matrix.Dense, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return ClusterMapReduceShippedContext(context.Background(), points, cfg, exec)
}

// ClusterMapReduceShippedContext is ClusterMapReduceShipped with
// cancellation: the context is threaded into the executor, so the TCP
// Master aborts in-flight remote tasks cooperatively.
func ClusterMapReduceShippedContext(ctx context.Context, points *matrix.Dense, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return RunPipeline(ctx, points, cfg, &shippedRunner{exec: exec})
}

// shippedRunner is the cross-process MapReduce backend: every stage's
// configuration and data travel through the job Conf and record values,
// never through closures.
type shippedRunner struct {
	exec mapreduce.Executor
	ctr  mapreduce.Counters
}

func (*shippedRunner) Name() string      { return "mapreduce-shipped" }
func (*shippedRunner) NeedsHasher() bool { return true }

// MapReduceCounters reports the counters accumulated across both
// stages; RunPipeline copies them onto the Result.
func (r *shippedRunner) MapReduceCounters() *mapreduce.Counters { return &r.ctr }

func (r *shippedRunner) Signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	n := p.Points.Rows()
	hashers, err := p.Hashers()
	if err != nil {
		return nil, err
	}
	conf := lshConf{Tables: make([]lshTable, len(hashers))}
	for t, h := range hashers {
		conf.Tables[t] = lshTable{Dims: h.Dimensions(), Thresholds: h.Thresholds()}
	}
	lshBlob, err := gobEncode(conf)
	if err != nil {
		return nil, err
	}
	lshJob, err := newShippedLSHJob(lshBlob)
	if err != nil {
		return nil, err
	}
	lshJob.Name = ShippedLSHJobName
	lshJob.Conf = lshBlob
	lshJob.SpillBytes = p.Cfg.SpillBytes
	lshJob.Compress = p.Cfg.Compression
	input := make([]mapreduce.Pair, n)
	for i := 0; i < n; i++ {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: encodeVector(p.Points.Row(i))}
	}
	sigPairs, ctr, err := mapreduce.RunWithContext(ctx, r.exec, lshJob, input)
	if err != nil {
		return nil, fmt.Errorf("core: lsh stage: %w", err)
	}
	r.ctr.Add(ctr)
	return signaturesFromPairs(sigPairs, n, len(hashers))
}

func (r *shippedRunner) Solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]BucketSolution, error) {
	n := p.Points.Rows()
	clusterBlob, err := gobEncode(clusterConf{
		N: n, K: p.Cfg.K, Sigma: p.Sigma, Seed: p.Cfg.Seed,
		SparseCutoff: p.Cfg.SparseCutoff, Epsilon: p.Cfg.Epsilon,
		EmbedDim: p.Cfg.EmbedDim, EmbedCutoff: p.Cfg.EmbedCutoff,
		Compression: p.Cfg.Compression,
	})
	if err != nil {
		return nil, err
	}
	clusterJob, err := newShippedClusterJob(clusterBlob)
	if err != nil {
		return nil, err
	}
	clusterJob.Name = ShippedClusterJobName
	clusterJob.Conf = clusterBlob
	clusterJob.SpillBytes = p.Cfg.SpillBytes
	clusterJob.Compress = p.Cfg.Compression
	stage2 := make([]mapreduce.Pair, len(part.Buckets))
	d := p.Points.Cols()
	embedOn := p.Cfg.EmbedDim > 0 && p.Embedder != nil
	var embScratch []float64
	for bi, b := range part.Buckets {
		var value []byte
		if embedOn && willEmbed(p.Cfg, len(b.Indices), n) {
			value, err = r.encodeEmbeddedBucket(p, b.Indices, &embScratch)
			if err != nil {
				return nil, fmt.Errorf("core: embed bucket %x: %w", b.Signature, err)
			}
		} else {
			payload := bucketPayload{
				Indices: make([]int32, len(b.Indices)),
				Dims:    d,
				Vectors: make([]float64, 0, len(b.Indices)*d),
			}
			for i, idx := range b.Indices {
				payload.Indices[i] = int32(idx)
				payload.Vectors = append(payload.Vectors, p.Points.Row(idx)...)
			}
			blob, err := gobEncode(payload)
			if err != nil {
				return nil, err
			}
			if embedOn {
				// Embed mode frames every record; legacy mode ships bare gob
				// so EmbedDim=0 runs stay byte-identical to prior releases.
				value = append([]byte{mapreduce.RawBucketKind}, blob...)
			} else {
				value = blob
			}
		}
		stage2[bi] = mapreduce.Pair{Key: fmt.Sprintf("%016x", b.Signature), Value: value}
	}
	labelPairs, ctr, err := mapreduce.RunWithContext(ctx, r.exec, clusterJob, stage2)
	if err != nil {
		return nil, fmt.Errorf("core: cluster stage: %w", err)
	}
	r.ctr.Add(ctr)
	return solutionsFromLabelPairs(part, labelPairs, n, p.Cfg.Compression)
}

// encodeEmbeddedBucket runs the map-side half of the embedded solve:
// push one bucket's rows through the plan's feature map and encode the
// wire record, metering transform time and record bytes into the
// runner's counters. The d′-dim record replaces ni·d raw coordinates
// with ni·d′ embedded ones — the shuffle-byte reduction the
// embed-and-conquer deployment exists for.
func (r *shippedRunner) encodeEmbeddedBucket(p *Plan, indices []int, scratch *[]float64) ([]byte, error) {
	ni := len(indices)
	dim := p.Embedder.Dim()
	if cap(*scratch) < ni*dim {
		*scratch = make([]float64, ni*dim)
	}
	rows := (*scratch)[:ni*dim]
	start := time.Now()
	err := p.Embedder.TransformInto(rows, p.Points, indices)
	r.ctr.EmbedNanos += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	idx32 := make([]int32, ni)
	for i, v := range indices {
		idx32[i] = int32(v)
	}
	dst := make([]byte, 0, 1+2*binary.MaxVarintLen64+ni*(4+8*dim))
	var rec []byte
	if p.Cfg.Compression {
		rec = mapreduce.AppendPackedEmbedBucket(dst, idx32, dim, rows)
	} else {
		rec = mapreduce.AppendEmbedBucket(dst, idx32, dim, rows)
	}
	r.ctr.EmbedBytes += int64(len(rec))
	return rec, nil
}
