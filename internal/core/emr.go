package core

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/emr"
	"repro/internal/lsh"
	"repro/internal/matrix"
)

// EMRFlow builds the paper's §5.1 job flow for a dataset: step 1
// partitions the input with LSH (one task per input split), step 2 runs
// spectral clustering on every bucket (one task per bucket, cost from
// the §4.1 complexity model with the given beta), and step 3 collects
// results. The real LSH partition of the dataset drives the task list,
// so simulated makespans reflect the actual bucket skew.
//
// The returned flow can be scheduled on emr.Clusters of different sizes
// to reproduce Table 3's elasticity study.
func EMRFlow(points *matrix.Dense, cfg Config, beta float64) (*emr.JobFlow, *lsh.Partition, error) {
	return EMRFlowContext(context.Background(), points, cfg, beta)
}

// EMRFlowContext is EMRFlow with cancellation: the context is checked
// during the signature pass and before the partition pass.
func EMRFlowContext(ctx context.Context, points *matrix.Dense, cfg Config, beta float64) (*emr.JobFlow, *lsh.Partition, error) {
	p, err := NewPlan(points, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	sigs, err := (&localRunner{}).Signatures(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	part, err := p.Ensemble.Partition(points, sigs, p.Radius)
	if err != nil {
		return nil, nil, fmt.Errorf("core: emr flow: %w", err)
	}
	return buildFlow(part, p.solver, p.Cfg, beta, false), part, nil
}

// EMRDiskBandwidth is the simulated sequential local-disk bandwidth in
// bytes per second — a 2012 m1.small-era spinning disk. Flow builders
// divide a task's DiskBytes by it to fold spill and shard I/O time
// into the task cost.
const EMRDiskBandwidth = 50 << 20

// spillRecordBytes is the modeled on-disk framed size of one stage-1
// shuffle record (19-byte table:signature key + 4-byte index value +
// two uvarint length prefixes), matching the spill run-file framing.
const spillRecordBytes = 25

// EMRCodecBandwidth is the simulated single-core flate throughput in
// bytes per second (measured against raw bytes pushed through the
// codec at flate.BestSpeed on 2012-era hardware). With
// Config.Compression on, flow builders bill raw/EMRCodecBandwidth of
// CPU per compression or decompression pass.
const EMRCodecBandwidth = 200 << 20

// EMRSpillCompressionRatio is the modeled compressed/raw size ratio of
// deflated spill runs. Stage-1 records are signature-keyed and highly
// repetitive, so BestSpeed lands well under half size; 0.4 matches the
// measured BENCH ratios conservatively.
const EMRSpillCompressionRatio = 0.4

// diskSeconds converts modeled disk traffic into task-cost seconds.
func diskSeconds(bytes int64) float64 {
	return float64(bytes) / float64(EMRDiskBandwidth)
}

// codecSeconds converts raw bytes pushed through the flate codec into
// task-cost seconds (one pass; callers bill compress and decompress
// separately).
func codecSeconds(rawBytes int64) float64 {
	return float64(rawBytes) / float64(EMRCodecBandwidth)
}

// spillDiskAndCodec models one spill write + merge re-read of raw
// framed bytes under the configured data plane: with compression the
// disk moves the deflated bytes both ways and the CPU pays one deflate
// plus one inflate pass over the raw size.
func spillDiskAndCodec(raw int64, compressed bool) (disk int64, codec float64) {
	if !compressed {
		return 2 * raw, 0
	}
	written := int64(float64(raw) * EMRSpillCompressionRatio)
	return 2 * written, 2 * codecSeconds(raw)
}

// BuildFlow constructs the job flow from an existing partition. cfg may
// be raw or already resolved against n — the flow is the same; one that
// does not resolve yields a nil flow, which RunJobFlow rejects. Costs
// follow §4.1: hashing is beta*M per point per split, multiplied by the
// number of ensemble tables (each table hashes every point); a bucket
// costs, and holds in memory, what the solve stage's plan says
// (bucketSolver.cost and plan: beta*(2 Ni^2 + 2 Ki Ni) beside a
// 4 Ni^2-byte sub-Gram); collection is a single linear pass.
//
// With embed mode on (EmbedDim > 0), buckets the embed policy claims
// become dot-product-bound: cost beta*(2 Ni d′ + 2 Ki Ni) and memory
// 8·Ni·d′ (the embedded rows), no Gram term at all. The feature
// transform, beta*d′ per point, runs in the reducer that solves the
// bucket; the model bills it to the stage-1 map tasks instead, as a
// simplification that spreads it evenly over the splits.
//
// With cfg.SpillBytes > 0 the flow models the out-of-core shuffle:
// every stage-1 record is written to a spill run and re-read by the
// merge (2× its framed size), billed at EMRDiskBandwidth and reported
// through Task.DiskBytes. BuildFlowSharded additionally models
// demand-read shard input.
func BuildFlow(part *lsh.Partition, cfg Config, n, dims int, beta float64) *emr.JobFlow {
	return flowOf(part, cfg, n, dims, beta, false)
}

// BuildFlowSharded is BuildFlow for the out-of-core sharded data plane:
// stage-1 tasks stream their input split from shard files instead of
// holding it resident (memory drops to the streaming working set, disk
// gains the 8·dims bytes per row), and bucket tasks demand-read their
// Ni rows before solving. Combine with cfg.SpillBytes for the full
// out-of-core model.
func BuildFlowSharded(part *lsh.Partition, cfg Config, n, dims int, beta float64) *emr.JobFlow {
	return flowOf(part, cfg, n, dims, beta, true)
}

// flowOf resolves cfg as a driver would and builds the solve stage the
// flow is costed from. The cost model does not read the kernel
// bandwidth, so an unfitted one stands at 1.
func flowOf(part *lsh.Partition, cfg Config, n, dims int, beta float64, sharded bool) *emr.JobFlow {
	cfg, _, err := cfg.resolve(n)
	if err != nil {
		return nil
	}
	sigma := cfg.Sigma
	if sigma <= 0 {
		sigma = 1
	}
	solver, err := newBucketSolver(policyOf(cfg, n, dims, sigma))
	if err != nil {
		return nil
	}
	return buildFlow(part, solver, cfg, beta, sharded)
}

// buildFlow costs the partition under a resolved configuration and the
// solver built from it.
func buildFlow(part *lsh.Partition, solver *bucketSolver, cfg Config, beta float64, sharded bool) *emr.JobFlow {
	if beta <= 0 {
		beta = analytic.DefaultModel().Beta
	}
	n, dims := solver.pol.N, solver.pol.Cols
	const splitSize = 1024
	var lshTasks []emr.Task
	for start := 0; start < n; start += splitSize {
		size := splitSize
		if start+size > n {
			size = n - start
		}
		mapCost := beta * float64(cfg.M) * float64(cfg.Tables) * float64(size)
		if cfg.EmbedDim > 0 {
			mapCost += beta * float64(cfg.EmbedDim) * float64(size)
		}
		var disk int64
		mem := int64(size) * int64(dims) * 8
		if sharded {
			// The mapper streams its rows from shard files: the split's
			// bytes move from resident memory to disk reads, leaving only
			// the row buffer and buffered output records in RAM.
			disk += int64(size) * int64(dims) * 8
			mem = int64(dims)*8 + int64(size)*int64(cfg.Tables)*spillRecordBytes
		}
		var codec float64
		if cfg.SpillBytes > 0 {
			// Out-of-core shuffle: every record is written to a spill run
			// and re-read by the k-way merge — deflated on disk, at one
			// flate pass each way, when the compressed plane is on.
			sdisk, scodec := spillDiskAndCodec(int64(size)*int64(cfg.Tables)*spillRecordBytes, cfg.Compression)
			disk += sdisk
			codec += scodec
		}
		lshTasks = append(lshTasks, emr.Task{
			Name:        fmt.Sprintf("lsh-split-%d", start/splitSize),
			Cost:        mapCost + diskSeconds(disk) + codec,
			MemoryBytes: mem,
			DiskBytes:   disk,
		})
	}

	var clusterTasks []emr.Task
	for _, b := range part.Buckets {
		ni := len(b.Indices)
		pl := solver.plan(ni)
		cost, mem := solver.cost(pl, ni, beta), pl.Bytes
		var disk int64
		if sharded {
			// The reducer demand-reads exactly its bucket's rows, which
			// then sit beside the Gram (or embedded block) while solving.
			disk += int64(ni) * int64(dims) * 8
			mem += int64(ni) * int64(dims) * 8
		}
		var codec float64
		if cfg.SpillBytes > 0 {
			// Stage-2 shuffle spill: the bucket's index record (4·Ni plus
			// the 16-byte signature key and framing) is written and merged
			// back from disk, deflated when the compressed plane is on.
			sdisk, scodec := spillDiskAndCodec(4*int64(ni)+20, cfg.Compression)
			disk += sdisk
			codec += scodec
		}
		clusterTasks = append(clusterTasks, emr.Task{
			Name:        fmt.Sprintf("bucket-%x", b.Signature),
			Cost:        cost + diskSeconds(disk) + codec,
			MemoryBytes: mem,
			DiskBytes:   disk,
		})
	}

	// Result collection streams labels back to the blob store; like the
	// hashing step it parallelizes over input splits.
	var collect []emr.Task
	for start := 0; start < n; start += splitSize {
		size := splitSize
		if start+size > n {
			size = n - start
		}
		collect = append(collect, emr.Task{
			Name:        fmt.Sprintf("collect-%d", start/splitSize),
			Cost:        beta * float64(size),
			MemoryBytes: int64(size) * 8,
		})
	}

	return &emr.JobFlow{
		Name: "dasc",
		Steps: []emr.Step{
			{Name: "lsh-partition", Tasks: lshTasks},
			{Name: "spectral-clustering", Tasks: clusterTasks},
			{Name: "collect", Tasks: collect},
		},
	}
}
