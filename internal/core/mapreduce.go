package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// This file is DASC as the paper's two MapReduce jobs (§3.3), written
// once against a rowSource (rowsource.go) and run by one Runner on any
// mapreduce.Executor:
//
//	stage 1 (Algorithm 1): map each input record's rows to one
//	  (table:signature, index) pair per hash table; the grouped reduce
//	  output is the raw signature partition,
//	stage 2 (Algorithm 2): after the driver merges near-duplicate
//	  signatures, each reducer solves its buckets with the bucketSolver
//	  every other driver uses, emitting per-point labels and one stats
//	  record per bucket.
//
// Both jobs travel as a registered name ("dasc-lsh", "dasc-cluster" —
// bench/ tells the stages apart by those suffixes) plus a gob Conf, so
// any process that imports this package can run their tasks. The two
// public MapReduce drivers differ only in the rowSource they hand the
// runner: where a worker gets row i.

// ClusterMapReduceShipped runs the two stages with all data shipped
// through the records — vectors in stage 1, whole buckets (embedded
// map-side where the embed policy claims them) in stage 2 — and all
// configuration through the job Conf, so the executor's workers may
// live in other OS processes (start them with cmd/dascworker): the full
// Hadoop deployment model.
func ClusterMapReduceShipped(points *matrix.Dense, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return ClusterMapReduceShippedContext(context.Background(), points, cfg, exec)
}

// ClusterMapReduceShippedContext is ClusterMapReduceShipped with
// cancellation.
func ClusterMapReduceShippedContext(ctx context.Context, points *matrix.Dense, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return RunPipeline(ctx, points, cfg, &mrRunner{exec: exec, src: &recordRows{points: points}})
}

// ClusterMapReduceSharded runs the two stages against a shard directory
// written by internal/shard, never materializing the input matrix in
// driver memory: stage-1 mappers stream their assigned shard row ranges
// and stage-2 reducers demand-read only the rows their buckets
// reference, so dataset size is bounded by disk, not RAM (combine with
// Config.SpillBytes for an out-of-core shuffle too). The plan (LSH
// thresholds, kernel bandwidth, feature map) is fitted from
// Config.FitSample evenly spaced rows; FitSample >= N makes the labels
// bit-identical to the in-memory drivers. Workers may live in other OS
// processes provided they can open the same shard directory.
func ClusterMapReduceSharded(dir string, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return ClusterMapReduceShardedContext(context.Background(), dir, cfg, exec)
}

// ClusterMapReduceShardedContext is ClusterMapReduceSharded with
// cancellation.
func ClusterMapReduceShardedContext(ctx context.Context, dir string, cfg Config, exec mapreduce.Executor) (*Result, error) {
	start := time.Now()
	ioBefore := workerShardIO()
	// The driver uses the same process-wide cached reader as in-process
	// workers: one set of handles per directory, shared by the fit
	// sample, probe reads, and every local task.
	src, err := openShardRows(dir)
	if err != nil {
		return nil, err
	}
	n := src.r.Rows()
	cfg, radius, err := cfg.resolve(n)
	if err != nil {
		return nil, err
	}
	sample, err := src.fitSample(cfg.FitSample)
	if err != nil {
		return nil, fmt.Errorf("core: sharded fit sample: %w", err)
	}
	p, err := fitPlan(sample, n, cfg, radius, true)
	if err != nil {
		return nil, err
	}
	p.Points = nil // nothing past the fit reads the sample; do not keep it resident
	// Margin-ordered probing sweeps the rows through a windowed cursor
	// over the shard reader; without probing the partition stage touches
	// no row.
	var probe lsh.PointSource
	var cursor *probeCursor
	if cfg.ProbeRadius > 0 {
		cursor = newProbeCursor(src.r)
		probe = cursor
	}
	res, err := runStages(ctx, start, p, probe, &mrRunner{exec: exec, src: src})
	if cursor != nil && cursor.err != nil {
		return nil, fmt.Errorf("core: sharded probe rows: %w", cursor.err)
	}
	if err != nil {
		return nil, err
	}
	// Process-local shard-read accounting: exact when the executor's
	// workers share this process; external TCP worker processes report
	// their byte meter on result frames, which the master already folded
	// into the stage counters (see mapreduce.Counters.ShardReadBytes).
	ioAfter := workerShardIO()
	res.MapReduce.ShardReadBytes += ioAfter.bytes - ioBefore.bytes
	res.MapReduce.ShardReadOps += ioAfter.ops - ioBefore.ops
	res.MapReduce.ShardCoalescedReads += ioAfter.coalesced - ioBefore.coalesced
	return res, nil
}

// mrRunner is the MapReduce backend: both stages run as jobs on exec,
// with src answering where their rows live.
type mrRunner struct {
	exec mapreduce.Executor
	src  rowSource
	ctr  mapreduce.Counters
}

func (*mrRunner) Name() string      { return "mapreduce" }
func (*mrRunner) NeedsHasher() bool { return true }

// MapReduceCounters reports the counters accumulated across both
// stages; the pipeline puts them on the Result. A copy, so that a
// retained Result does not keep the runner — and through its source the
// dataset — alive.
func (r *mrRunner) MapReduceCounters() *mapreduce.Counters {
	ctr := r.ctr
	return &ctr
}

// run names one stage's job ("lsh" or "cluster") for the registered
// factories, attaches its configuration and runs it.
func (r *mrRunner) run(ctx context.Context, p *Plan, job *mapreduce.Job, stage string, conf any, input []mapreduce.Pair) ([]mapreduce.Pair, error) {
	var err error
	job.Name = "dasc-" + stage
	if job.Conf, err = gobEncode(conf); err != nil {
		return nil, fmt.Errorf("core: %s conf: %w", stage, err)
	}
	job.SpillBytes = p.Cfg.SpillBytes
	job.Compress = p.Cfg.Compression
	out, ctr, err := mapreduce.RunWithContext(ctx, r.exec, job, input)
	if err != nil {
		return nil, fmt.Errorf("core: %s stage: %w", stage, err)
	}
	r.ctr.Add(ctr)
	return out, nil
}

func (r *mrRunner) Signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	hashers, err := p.Hashers()
	if err != nil {
		return nil, err
	}
	conf := lshConf{Dir: r.src.dir(), Tables: make([]lshTable, len(hashers))}
	for t, h := range hashers {
		conf.Tables[t] = lshTable{Dims: h.Dimensions(), Thresholds: h.Thresholds()}
	}
	job, err := newLSHJob(r.src, conf)
	if err != nil {
		return nil, err
	}
	input, splitSize := r.src.lshInput()
	job.SplitSize = splitSize
	sigPairs, err := r.run(ctx, p, job, "lsh", conf, input)
	if err != nil {
		return nil, err
	}
	return signaturesFromPairs(sigPairs, p.solver.pol.N, len(hashers))
}

func (r *mrRunner) Solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]BucketSolution, error) {
	input := make([]mapreduce.Pair, len(part.Buckets))
	var scratch []float64
	for bi, b := range part.Buckets {
		value, err := r.src.encodeBucket(p, b.Indices, &scratch, &r.ctr)
		if err != nil {
			return nil, fmt.Errorf("core: bucket %x: %w", b.Signature, err)
		}
		input[bi] = mapreduce.Pair{Key: fmt.Sprintf("%016x", b.Signature), Value: value}
	}
	conf := solveConf{Dir: r.src.dir(), Policy: p.solver.pol}
	labelPairs, err := r.run(ctx, p, newClusterJob(r.src, p.solver), "cluster", conf, input)
	if err != nil {
		return nil, err
	}
	return solutionsFromLabelPairs(part, labelPairs, p.solver.pol.N)
}

// ---- the two jobs ----

// lshTable is one ensemble table's fitted hash parameters.
type lshTable struct {
	Dims       []int
	Thresholds []float64
}

// lshConf is the stage-1 configuration: every table's fitted hash
// parameters, so a remote worker can compute the full signature set,
// and the shard directory of a shard-backed source (see workerSource).
type lshConf struct {
	Dir    string
	Tables []lshTable
}

// solveConf is the stage-2 configuration: the shard directory of a
// shard-backed source and the driver's solve policy, from which every
// worker builds bitwise the driver's solver.
type solveConf struct {
	Dir    string
	Policy solvePolicy
}

// gobEncode / gobDecode move a job's configuration through Job.Conf —
// Hadoop's JobConf analogue: one blob per job, rebuilt into the job by
// the factories below in any process that imports this package.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// lshJobFromConf and clusterJobFromConf are the mapreduce.JobFactory
// forms of the two job builders: what a worker runs to turn a task's job
// name and Conf back into the job.
func lshJobFromConf(blob []byte) (*mapreduce.Job, error) {
	var c lshConf
	if err := gobDecode(blob, &c); err != nil {
		return nil, fmt.Errorf("core: lsh conf: %w", err)
	}
	src, err := workerSource(c.Dir)
	if err != nil {
		return nil, err
	}
	return newLSHJob(src, c)
}

func clusterJobFromConf(blob []byte) (*mapreduce.Job, error) {
	var c solveConf
	if err := gobDecode(blob, &c); err != nil {
		return nil, fmt.Errorf("core: cluster conf: %w", err)
	}
	src, err := workerSource(c.Dir)
	if err != nil {
		return nil, err
	}
	solver, err := newBucketSolver(c.Policy)
	if err != nil {
		return nil, err
	}
	return newClusterJob(src, solver), nil
}

// newLSHJob builds the stage-1 job (Algorithm 1, extended to the
// multi-table ensemble): the source's mapper turns each input record
// into its rows, each is hashed once per table by the lsh.Hasher rebuilt
// from the shipped thresholds and emits one (table:signature, index)
// record per table; the reducer passes records through, so the
// executor's shuffle performs the per-table signature grouping.
func newLSHJob(src rowSource, c lshConf) (*mapreduce.Job, error) {
	if len(c.Tables) == 0 {
		return nil, fmt.Errorf("core: lsh conf has no tables")
	}
	hashers := make([]*lsh.Hasher, len(c.Tables))
	width := 0 // columns a row must have: the largest shipped dimension + 1
	for t, tab := range c.Tables {
		h, err := lsh.NewHasher(tab.Dims, tab.Thresholds)
		if err != nil {
			return nil, fmt.Errorf("core: lsh conf table %d: %w", t, err)
		}
		hashers[t] = h
		for _, dim := range tab.Dims {
			width = max(width, dim+1)
		}
	}
	return &mapreduce.Job{
		NumReducers: 4,
		Map: src.mapRows(func(idx int, row []float64, emit mapreduce.Emit) error {
			// Rows arrive off the wire or from a shard file; Signature
			// indexes them unchecked.
			if len(row) < width {
				return fmt.Errorf("hash dimension %d outside vector of %d", width-1, len(row))
			}
			// The shuffle keeps the emitted value, so every row gets its
			// own; the tables share it.
			buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 4), uint32(idx))
			for t, h := range hashers {
				emit(encodeSigKey(t, h.Signature(row)), buf)
			}
			return nil
		}),
		Reduce:         mapreduce.IdentityReduceFunc,
		IdentityReduce: true,
	}, nil
}

// newClusterJob builds the stage-2 job (Algorithm 2): each reduce value
// is one merged bucket in the source's record form; the reducer has the
// source open it, solves it, and emits one (bucketSig, point/label/k)
// record per point plus the bucket's stats record.
func newClusterJob(src rowSource, solver *bucketSolver) *mapreduce.Job {
	return &mapreduce.Job{
		NumReducers: 4,
		Map:         mapreduce.IdentityMapFunc, // buckets arrive formed and encoded
		IdentityMap: true,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			// Reducers may run concurrently, so the sub-Gram scratch is
			// per-invocation; it is still reused across this key's values.
			var scratch []float64
			for _, v := range values {
				b, err := src.openBucket(v)
				if err != nil {
					return err
				}
				sol, err := solver.solve(b, &scratch)
				if err != nil {
					return err
				}
				for pos, idx := range b.ids {
					emit(key, encodeLabel(idx, sol.Labels[pos], sol.K))
				}
				emit(key, encodeBucketStats(sol))
			}
			return nil
		},
	}
}

// ---- record codecs: one encoding each ----

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
// from stage-1 output records. The stream must carry exactly one record
// per (table, point) — held to stage 2's standard: a lost or repeated
// record is an error, not a silent signature 0 or last write wins.
func signaturesFromPairs(sigPairs []mapreduce.Pair, n, tables int) (*lsh.SignatureSet, error) {
	sigs := lsh.NewSignatureSet(tables, n)
	seen := make([]uint64, (tables*n+63)/64) // bit t*n+idx: that signature has arrived
	for _, p := range sigPairs {
		t, sig, err := decodeSigKey(p.Key)
		if err != nil {
			return nil, err
		}
		if t >= tables {
			return nil, fmt.Errorf("core: table %d out of range (have %d)", t, tables)
		}
		if len(p.Value) != 4 {
			return nil, fmt.Errorf("core: signature payload length %d", len(p.Value))
		}
		idx := int(binary.LittleEndian.Uint32(p.Value))
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("core: index %d out of range", idx)
		}
		bit := t*n + idx
		if seen[bit/64]&(1<<(bit%64)) != 0 {
			return nil, fmt.Errorf("core: duplicate signature for table %d, point %d", t, idx)
		}
		seen[bit/64] |= 1 << (bit % 64)
		sigs.Tables[t][idx] = sig
	}
	if len(sigPairs) != tables*n { // none repeated, so one was lost: name the first
		bit := 0
		for seen[bit/64]&(1<<(bit%64)) != 0 {
			bit++
		}
		return nil, fmt.Errorf("core: missing signature for table %d, point %d (%d of %d records)", bit/n, bit%n, len(sigPairs), tables*n)
	}
	return sigs, nil
}

// solutionsFromLabelPairs converts stage-2 output records back into
// per-bucket solutions aligned with the partition — the inverse of the
// reducer's emission. Two record kinds share the stream, both keyed by
// the bucket signature: 12-byte per-point (pointIndex, localLabel, k)
// triples and the per-bucket solver stats records, which carry the 'S'
// marker and are at least 13 bytes by construction, so a 12-byte record
// is always a label. The shared assembly path then offsets the
// solutions exactly like every other runner's.
func solutionsFromLabelPairs(part *lsh.Partition, pairs []mapreduce.Pair, n int) ([]BucketSolution, error) {
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
		if isStatsRecord(p.Value) {
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
			if err := decodeBucketStats(p.Value, &sols[bi]); err != nil {
				return nil, err
			}
			continue
		}
		if len(p.Value) != labelLen {
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

// statsKind opens a stats record: 'S', a zero version byte, uvarint
// NNZ, 8-byte LE Fill bits, uvarint SolveNanos, uvarint GramBytes, then
// the solver name. The two fixed leading bytes plus the 8-byte float
// keep every stats record at least 13 bytes, so it can never collide
// with a 12-byte label.
const statsKind = 'S'

// isStatsRecord tells a stage-2 output record's kind: a per-bucket
// stats record, or else a label record.
func isStatsRecord(v []byte) bool {
	return len(v) != labelLen && len(v) > 0 && v[0] == statsKind
}

// encodeBucketStats packs a solution's solver accounting into one
// stage-2 output record.
func encodeBucketStats(s BucketSolution) []byte {
	buf := make([]byte, 0, 2+3*binary.MaxVarintLen64+8+len(s.Solver))
	buf = append(buf, statsKind, 0)
	buf = binary.AppendUvarint(buf, uint64(s.NNZ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Fill))
	buf = binary.AppendUvarint(buf, uint64(s.SolveNanos))
	buf = binary.AppendUvarint(buf, uint64(s.GramBytes))
	return append(buf, s.Solver...)
}

// decodeBucketStats unpacks a stats record into the solution's
// accounting fields, leaving Labels and K untouched.
func decodeBucketStats(buf []byte, s *BucketSolution) error {
	if len(buf) < 2 || buf[0] != statsKind || buf[1] != 0 {
		return fmt.Errorf("core: bad stats record")
	}
	rest := buf[2:]
	nnz, n := binary.Uvarint(rest)
	if n <= 0 || len(rest[n:]) < 8 {
		return fmt.Errorf("core: truncated stats record")
	}
	rest = rest[n:]
	fill := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]
	nanos, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("core: truncated stats record")
	}
	rest = rest[n:]
	gram, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("core: truncated stats record")
	}
	s.NNZ = int64(nnz)
	s.Fill = fill
	s.SolveNanos = int64(nanos)
	s.GramBytes = int64(gram)
	s.Solver = string(rest[n:])
	return nil
}

// encodeIndices packs a bucket index list — the stage-2 record of the
// sources whose reducers find the rows themselves — as a uvarint count
// followed by zigzag-varint deltas. Bucket index lists are sorted
// ascending, so the deltas are small positive integers and the record
// costs about one byte per point.
func encodeIndices(indices []int) []byte {
	buf := binary.AppendUvarint(make([]byte, 0, 1+2*len(indices)), uint64(len(indices)))
	prev := 0
	for _, idx := range indices {
		buf = binary.AppendVarint(buf, int64(idx-prev))
		prev = idx
	}
	return buf
}

// decodeIndices is the inverse of encodeIndices. Every decoded index
// must be non-negative and fit int32, and nothing may follow the list.
func decodeIndices(buf []byte) ([]int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("core: bad index count")
	}
	rest := buf[n:]
	// Each delta occupies at least one byte, so the declared count bounds
	// the allocation before it happens.
	if count > uint64(len(rest)) {
		return nil, fmt.Errorf("core: index count %d exceeds payload %d", count, len(rest))
	}
	out := make([]int, count)
	prev := int64(0)
	for i := range out {
		d, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("core: truncated index list")
		}
		rest = rest[n:]
		prev += d
		if prev < 0 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("core: index %d out of range", prev)
		}
		out[i] = int(prev)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after index list", len(rest))
	}
	return out, nil
}

// labelLen is the size of a label record.
const labelLen = 12

// encodeLabel packs (pointIndex, localLabel, bucketK).
func encodeLabel(idx, label, k int) []byte {
	buf := make([]byte, labelLen)
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
