package core

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// ClusterMapReduce runs DASC as the paper's two MapReduce stages (§3.3)
// on the given executor:
//
//	stage 1 (Algorithm 1): map each (index, vector) record to a
//	  (signature, index) pair; the grouped reduce output is the raw
//	  signature partition,
//	stage 2 (Algorithm 2): after the driver merges near-duplicate
//	  signatures, each reducer computes its bucket's sub-similarity
//	  matrix and runs spectral clustering, emitting per-point labels.
//
// The jobs are registered under names derived from jobPrefix so that
// TCP workers in the same process can execute them (the points matrix
// travels by closure, standing in for HDFS-distributed input splits).
func ClusterMapReduce(points *matrix.Dense, cfg Config, exec mapreduce.Executor, jobPrefix string) (*Result, error) {
	return ClusterMapReduceContext(context.Background(), points, cfg, exec, jobPrefix)
}

// ClusterMapReduceContext is ClusterMapReduce with cancellation: the
// context is threaded into the executor, so executors implementing
// mapreduce.ContextExecutor (Local and the TCP Master) abort in-flight
// map and reduce work cooperatively.
func ClusterMapReduceContext(ctx context.Context, points *matrix.Dense, cfg Config, exec mapreduce.Executor, jobPrefix string) (*Result, error) {
	return RunPipeline(ctx, points, cfg, &mapReduceRunner{exec: exec, prefix: jobPrefix})
}

// mapReduceRunner is the closure-carrying MapReduce backend: jobs
// capture the points matrix, so executor workers must share the
// driver's address space (goroutine TCP workers or the Local pool).
type mapReduceRunner struct {
	exec   mapreduce.Executor
	prefix string
	ctr    mapreduce.Counters
}

func (*mapReduceRunner) Name() string      { return "mapreduce" }
func (*mapReduceRunner) NeedsHasher() bool { return true }

// MapReduceCounters reports the counters accumulated across both
// stages; RunPipeline copies them onto the Result.
func (r *mapReduceRunner) MapReduceCounters() *mapreduce.Counters { return &r.ctr }

func (r *mapReduceRunner) Signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	n := p.Points.Rows()
	hashers, err := p.Hashers()
	if err != nil {
		return nil, err
	}
	lshJob := LSHJob(r.prefix, p.Points, hashers)
	lshJob.SpillBytes = p.Cfg.SpillBytes
	lshJob.Compress = p.Cfg.Compression
	input := make([]mapreduce.Pair, n)
	for i := 0; i < n; i++ {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i)}
	}
	sigPairs, ctr, err := mapreduce.RunWithContext(ctx, r.exec, lshJob, input)
	if err != nil {
		return nil, fmt.Errorf("core: lsh stage: %w", err)
	}
	r.ctr.Add(ctr)
	return signaturesFromPairs(sigPairs, n, len(hashers))
}

func (r *mapReduceRunner) Solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]BucketSolution, error) {
	clusterJob := ClusterJob(r.prefix, p.Points, p.Cfg, p.Sigma, p.Embedder)
	clusterJob.SpillBytes = p.Cfg.SpillBytes
	clusterJob.Compress = p.Cfg.Compression
	stage2Input := make([]mapreduce.Pair, len(part.Buckets))
	for bi, b := range part.Buckets {
		stage2Input[bi] = mapreduce.Pair{
			Key:   fmt.Sprintf("%016x", b.Signature),
			Value: encodeIndicesConf(b.Indices, p.Cfg.Compression),
		}
	}
	labelPairs, ctr, err := mapreduce.RunWithContext(ctx, r.exec, clusterJob, stage2Input)
	if err != nil {
		return nil, fmt.Errorf("core: cluster stage: %w", err)
	}
	r.ctr.Add(ctr)
	return solutionsFromLabelPairs(part, labelPairs, p.Points.Rows(), p.Cfg.Compression)
}

// sigKeyLen is the fixed length of a stage-1 record key:
// two hex digits of table, ':', sixteen hex digits of signature.
const sigKeyLen = 2 + 1 + 16

// encodeSigKey formats a stage-1 record key as "<table>:<signature>"
// with fixed-width lower-case hex fields (the bytes of
// fmt.Sprintf("%02x:%016x", table, sig); table is an ensemble index,
// below lsh.MaxTables and so always one byte), so the shuffle groups
// per (table, signature) and keys sort in (table, signature) order.
// Runs once per row per table in every stage-1 mapper, hence no fmt:
// one allocation, the string.
func encodeSigKey(table int, sig uint64) string {
	var raw [1 + 8]byte
	raw[0] = byte(table)
	binary.BigEndian.PutUint64(raw[1:], sig)
	var b [sigKeyLen]byte
	hex.Encode(b[:2], raw[:1])
	b[2] = ':'
	hex.Encode(b[3:], raw[1:])
	return string(b[:])
}

// decodeSigKey is the inverse of encodeSigKey; it allocates nothing.
// Hex digits of either case are accepted, anything else is an error.
func decodeSigKey(key string) (table int, sig uint64, err error) {
	if len(key) != sigKeyLen || key[2] != ':' {
		return 0, 0, fmt.Errorf("core: bad signature key %q", key)
	}
	var raw [1 + 8]byte
	if _, err := hex.Decode(raw[:1], []byte(key[:2])); err != nil {
		return 0, 0, fmt.Errorf("core: bad table in key %q: %w", key, err)
	}
	if _, err := hex.Decode(raw[1:], []byte(key[3:])); err != nil {
		return 0, 0, fmt.Errorf("core: bad signature in key %q: %w", key, err)
	}
	return int(raw[0]), binary.BigEndian.Uint64(raw[1:]), nil
}

// signaturesFromPairs reassembles the per-point per-table signature set
// from stage-1 output records, shared by both MapReduce runners.
func signaturesFromPairs(sigPairs []mapreduce.Pair, n, tables int) (*lsh.SignatureSet, error) {
	sigs := lsh.NewSignatureSet(tables, n)
	for _, p := range sigPairs {
		t, sig, err := decodeSigKey(p.Key)
		if err != nil {
			return nil, err
		}
		if t >= tables {
			return nil, fmt.Errorf("core: table %d out of range (have %d)", t, tables)
		}
		idx := int(binary.LittleEndian.Uint32(p.Value))
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("core: index %d out of range", idx)
		}
		sigs.Tables[t][idx] = sig
	}
	return sigs, nil
}

// solutionsFromLabelPairs converts stage-2 output records back into
// per-bucket solutions aligned with the partition — the inverse of the
// reducers' emission, shared by both MapReduce runners. Two record
// kinds share the stream, both keyed by the bucket signature: 12-byte
// per-point (pointIndex, localLabel, k) triples and the per-bucket
// solver stats records. In legacy mode (packed false) stats are the
// fixed 32-byte-plus-solver layout and the kinds are length-
// distinguished; in packed mode stats carry the 'S' marker and are at
// least 13 bytes by construction, so a 12-byte record is always a
// label. The shared assembly path then offsets the solutions exactly
// like every other runner's.
func solutionsFromLabelPairs(part *lsh.Partition, pairs []mapreduce.Pair, n int, packed bool) ([]BucketSolution, error) {
	// bucketOf[i] / posOf[i] locate point i in the partition until its
	// label arrives. The stream must label every point of every bucket
	// exactly once and carry every bucket's stats record: a lost or
	// repeated record is an error, not a silent label 0 or last write
	// wins.
	const (
		unknownPoint  = -1 // in no bucket
		labelledPoint = -2 // label already seen
	)
	bucketOf := make([]int32, n)
	posOf := make([]int32, n)
	for i := range bucketOf {
		bucketOf[i] = unknownPoint
	}
	sigOf := make(map[uint64]int, len(part.Buckets))
	sols := make([]BucketSolution, len(part.Buckets))
	labelled := make([]int, len(part.Buckets))
	hasStats := make([]bool, len(part.Buckets))
	for bi, b := range part.Buckets {
		sols[bi].Labels = make([]int, len(b.Indices))
		sigOf[b.Signature] = bi
		for pi, idx := range b.Indices {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("core: bucket %x holds out-of-range point %d", b.Signature, idx)
			}
			bucketOf[idx], posOf[idx] = int32(bi), int32(pi)
		}
	}
	for _, p := range pairs {
		if isStatsRecord(p.Value, packed) {
			sig, err := strconv.ParseUint(p.Key, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("core: bad stats key %q: %w", p.Key, err)
			}
			bi, ok := sigOf[sig]
			if !ok {
				return nil, fmt.Errorf("core: stats for unknown bucket %x", sig)
			}
			if hasStats[bi] {
				return nil, fmt.Errorf("core: duplicate stats for bucket %x", sig)
			}
			hasStats[bi] = true
			if packed {
				if err := decodePackedBucketStats(p.Value, &sols[bi]); err != nil {
					return nil, err
				}
			} else {
				decodeBucketStats(p.Value, &sols[bi])
			}
			continue
		}
		if len(p.Value) != 12 {
			return nil, fmt.Errorf("core: label payload length %d", len(p.Value))
		}
		idx, local, k := decodeLabel(p.Value)
		if idx < 0 || idx >= n || bucketOf[idx] == unknownPoint {
			return nil, fmt.Errorf("core: label for out-of-range point %d", idx)
		}
		bi := bucketOf[idx]
		if bi == labelledPoint {
			return nil, fmt.Errorf("core: duplicate label for point %d", idx)
		}
		bucketOf[idx] = labelledPoint
		sols[bi].Labels[posOf[idx]] = local
		sols[bi].K = k
		labelled[bi]++
	}
	for bi, b := range part.Buckets {
		if labelled[bi] != len(b.Indices) {
			return nil, fmt.Errorf("core: bucket %x: %d of %d points labelled", b.Signature, labelled[bi], len(b.Indices))
		}
		if !hasStats[bi] {
			return nil, fmt.Errorf("core: bucket %x: missing stats record", b.Signature)
		}
	}
	return sols, nil
}

// isStatsRecord tells a stage-2 output record's kind: a per-bucket
// stats record, or else a 12-byte label record.
func isStatsRecord(v []byte, packed bool) bool {
	if packed {
		return len(v) != 12 && len(v) > 0 && v[0] == packedStatsKind
	}
	return len(v) >= bucketStatsLen
}

// bucketStatsLen is the fixed prefix of a stats record: NNZ, Fill bits,
// SolveNanos, GramBytes as little-endian uint64s, followed by the
// solver name. Always longer than the 12-byte label records, so record
// kinds are length-distinguished.
const bucketStatsLen = 32

// encodeBucketStats packs a solution's solver accounting into one
// stage-2 output record.
func encodeBucketStats(s BucketSolution) []byte {
	buf := make([]byte, bucketStatsLen+len(s.Solver))
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.NNZ))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.Fill))
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.SolveNanos))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.GramBytes))
	copy(buf[bucketStatsLen:], s.Solver)
	return buf
}

// decodeBucketStats unpacks a stats record into the solution's
// accounting fields, leaving Labels and K untouched.
func decodeBucketStats(buf []byte, s *BucketSolution) {
	s.NNZ = int64(binary.LittleEndian.Uint64(buf[0:]))
	s.Fill = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	s.SolveNanos = int64(binary.LittleEndian.Uint64(buf[16:]))
	s.GramBytes = int64(binary.LittleEndian.Uint64(buf[24:]))
	s.Solver = string(buf[bucketStatsLen:])
}

// packedStatsKind opens a compact stats record in Compression mode:
// 'S', a zero version byte, uvarint NNZ, 8-byte LE Fill bits, uvarint
// SolveNanos, uvarint GramBytes, then the solver name. The two fixed
// leading bytes plus the 8-byte float keep every packed stats record
// at least 13 bytes, so it can never collide with a 12-byte label.
const packedStatsKind = 'S'

// encodeBucketStatsConf packs a solution's solver accounting in the
// legacy fixed layout, or the compact varint layout when the job runs
// with Config.Compression.
func encodeBucketStatsConf(s BucketSolution, packed bool) []byte {
	if !packed {
		return encodeBucketStats(s)
	}
	buf := make([]byte, 0, 2+3*binary.MaxVarintLen64+8+len(s.Solver))
	buf = append(buf, packedStatsKind, 0)
	buf = binary.AppendUvarint(buf, uint64(s.NNZ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Fill))
	buf = binary.AppendUvarint(buf, uint64(s.SolveNanos))
	buf = binary.AppendUvarint(buf, uint64(s.GramBytes))
	return append(buf, s.Solver...)
}

// decodePackedBucketStats is the inverse of the packed arm of
// encodeBucketStatsConf.
func decodePackedBucketStats(buf []byte, s *BucketSolution) error {
	if len(buf) < 2 || buf[0] != packedStatsKind || buf[1] != 0 {
		return fmt.Errorf("core: bad packed stats record")
	}
	rest := buf[2:]
	nnz, n := binary.Uvarint(rest)
	if n <= 0 || len(rest[n:]) < 8 {
		return fmt.Errorf("core: truncated packed stats record")
	}
	rest = rest[n:]
	fill := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]
	nanos, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("core: truncated packed stats record")
	}
	rest = rest[n:]
	gram, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("core: truncated packed stats record")
	}
	s.NNZ = int64(nnz)
	s.Fill = fill
	s.SolveNanos = int64(nanos)
	s.GramBytes = int64(gram)
	s.Solver = string(rest[n:])
	return nil
}

// LSHJob builds the stage-1 MapReduce job (Algorithm 1, extended to the
// multi-table ensemble): the mapper hashes its input vector once per
// table and emits one (table:signature, index) record per table; the
// reducer passes records through, so the executor's shuffle performs
// the per-table signature grouping.
func LSHJob(prefix string, points *matrix.Dense, hashers []*lsh.Hasher) *mapreduce.Job {
	job := &mapreduce.Job{
		Name:        prefix + "/lsh",
		NumReducers: 4,
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			idx, err := strconv.Atoi(key)
			if err != nil {
				return fmt.Errorf("bad point index %q: %w", key, err)
			}
			if idx < 0 || idx >= points.Rows() {
				return fmt.Errorf("point index %d out of range", idx)
			}
			row := points.Row(idx)
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(idx))
			for t, h := range hashers {
				emit(encodeSigKey(t, h.Signature(row)), buf[:])
			}
			return nil
		},
		Reduce:         mapreduce.IdentityReduceFunc,
		IdentityReduce: true,
	}
	mapreduce.Register(job)
	return job
}

// ClusterJob builds the stage-2 MapReduce job (Algorithm 2): each
// reduce key is one merged bucket; the reducer computes the bucket's
// sub-similarity matrix and runs spectral clustering — or, with embed
// mode on, embeds the bucket rows and runs k-means — emitting one
// (bucketSig, point/label/k) record per point. This closure runner
// shares the driver's memory, so only indices travel through the
// shuffle either way; the shipped runner is where map-side embedding
// shrinks the wire payloads.
func ClusterJob(prefix string, points *matrix.Dense, cfg Config, sigma float64, emb embed.Embedder) *mapreduce.Job {
	n := points.Rows()
	kf := kernel.NewGaussian(sigma)
	job := &mapreduce.Job{
		Name:        prefix + "/cluster",
		NumReducers: 4,
		Map:         mapreduce.IdentityMapFunc, // buckets are already formed
		IdentityMap: true,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			// Reducers may run concurrently, so the sub-Gram scratch is
			// per-invocation; it is still reused across this key's values.
			var scratch []float64
			for _, v := range values {
				indices, err := decodeIndicesConf(v, cfg.Compression)
				if err != nil {
					return err
				}
				sol, err := clusterOneBucket(points, indices, cfg, n, kf, emb, &scratch)
				if err != nil {
					return err
				}
				for pi, idx := range indices {
					emit(key, encodeLabel(idx, sol.Labels[pi], sol.K))
				}
				emit(key, encodeBucketStatsConf(sol, cfg.Compression))
			}
			return nil
		},
	}
	mapreduce.Register(job)
	return job
}

// encodeIndices packs point indices as little-endian uint32s.
func encodeIndices(indices []int) []byte {
	buf := make([]byte, 4*len(indices))
	for i, idx := range indices {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(idx))
	}
	return buf
}

func decodeIndices(buf []byte) ([]int, error) {
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("core: index payload length %d", len(buf))
	}
	out := make([]int, len(buf)/4)
	for i := range out {
		v := binary.LittleEndian.Uint32(buf[i*4:])
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("core: index %d overflows", v)
		}
		out[i] = int(v)
	}
	return out, nil
}

// encodeIndicesConf packs a bucket index list in the legacy 4-byte-LE
// layout, or — when the job runs with Config.Compression — as a
// uvarint count followed by zigzag-varint deltas. Bucket index lists
// are sorted ascending, so the deltas are small positive integers and
// the record shrinks toward one byte per point.
func encodeIndicesConf(indices []int, packed bool) []byte {
	if !packed {
		return encodeIndices(indices)
	}
	buf := binary.AppendUvarint(make([]byte, 0, 1+2*len(indices)), uint64(len(indices)))
	prev := 0
	for _, idx := range indices {
		buf = binary.AppendVarint(buf, int64(idx-prev))
		prev = idx
	}
	return buf
}

// decodeIndicesConf is the inverse of encodeIndicesConf. Every decoded
// index must fit int32 and be non-negative, mirroring decodeIndices.
func decodeIndicesConf(buf []byte, packed bool) ([]int, error) {
	if !packed {
		return decodeIndices(buf)
	}
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("core: bad packed index count")
	}
	rest := buf[n:]
	// Each delta occupies at least one byte, so the declared count bounds
	// the allocation before it happens.
	if count > uint64(len(rest)) {
		return nil, fmt.Errorf("core: packed index count %d exceeds payload %d", count, len(rest))
	}
	out := make([]int, count)
	prev := int64(0)
	for i := range out {
		d, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("core: truncated packed index list")
		}
		rest = rest[n:]
		prev += d
		if prev < 0 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("core: packed index %d out of range", prev)
		}
		out[i] = int(prev)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after packed index list", len(rest))
	}
	return out, nil
}

// encodeLabel packs (pointIndex, localLabel, bucketK).
func encodeLabel(idx, label, k int) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint32(buf[0:], uint32(idx))
	binary.LittleEndian.PutUint32(buf[4:], uint32(label))
	binary.LittleEndian.PutUint32(buf[8:], uint32(k))
	return buf
}

func decodeLabel(buf []byte) (idx, label, k int) {
	return int(binary.LittleEndian.Uint32(buf[0:])),
		int(binary.LittleEndian.Uint32(buf[4:])),
		int(binary.LittleEndian.Uint32(buf[8:]))
}
