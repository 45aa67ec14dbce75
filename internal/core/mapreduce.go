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
//	stage 1 (Algorithm 1): hash each input record's rows once per table
//	  and emit one (table:signature, index list) record per signature
//	  the record's rows share — in-mapper combining, so the shuffle
//	  carries O(signatures × map tasks) records, not O(N); the grouped
//	  reduce output is the raw signature partition,
//	stage 2 (Algorithm 2): after the driver merges near-duplicate
//	  signatures, each reducer solves its buckets with the bucketSolver
//	  every other driver uses, emitting one result record per bucket:
//	  its solver stats, K and local labels.
//
// Both jobs travel as a registered name ("dasc-lsh", "dasc-cluster" —
// bench/ tells the stages apart by those suffixes) plus a gob Conf, so
// any process that imports this package can run their tasks. The two
// public MapReduce drivers differ only in the rowSource they hand the
// runner: where a worker gets row i.

// ClusterMapReduceShipped runs the two stages with all data shipped
// through the records — blocks of rows in stage 1, each bucket's raw rows
// in stage 2, embedded (where the plan says so) by the reducer that
// solves it — and all configuration through the job Conf, so the
// executor's workers may live in other OS processes (start them with
// cmd/dascworker): the full Hadoop deployment model.
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
		input[bi] = mapreduce.Pair{Key: fmt.Sprintf("%016x", b.Signature), Value: r.src.encodeBucket(b.Indices, &scratch)}
	}
	conf := solveConf{Dir: r.src.dir(), Policy: p.solver.pol}
	labelPairs, err := r.run(ctx, p, newClusterJob(r.src, p.solver), "cluster", conf, input)
	if err != nil {
		return nil, err
	}
	return solutionsFromLabelPairs(part, labelPairs)
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

// sigGroup is one stage-1 output record in the making: the rows of one
// input record that share a signature in one table.
type sigGroup struct {
	table int
	sig   uint64
	ids   []int
}

// newLSHJob builds the stage-1 job (Algorithm 1, extended to the
// multi-table ensemble): the source turns each input record into its
// rows, each is hashed once per table by the lsh.Hasher rebuilt from the
// shipped thresholds, and the mapper emits one (table:signature, index
// list) record per signature its record's rows share — Hadoop's
// in-mapper combining; the reducer passes records through, so the
// executor's shuffle finishes the per-table signature grouping across
// map tasks.
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
		Map: func(_ string, value []byte, emit mapreduce.Emit) error {
			// Groups are kept in first-seen order and emitted only once the
			// whole record is hashed: a short row fails the record with
			// nothing emitted, and no map iteration order reaches the output.
			var groups []sigGroup
			slot := make(map[[2]uint64]int)
			err := src.eachRow(value, func(idx int, row []float64) error {
				// Rows arrive off the wire or from a shard file; Signature
				// indexes them unchecked.
				if len(row) < width {
					return fmt.Errorf("hash dimension %d outside vector of %d", width-1, len(row))
				}
				for t, h := range hashers {
					sig := h.Signature(row)
					g, ok := slot[[2]uint64{uint64(t), sig}]
					if !ok {
						g = len(groups)
						slot[[2]uint64{uint64(t), sig}] = g
						groups = append(groups, sigGroup{table: t, sig: sig})
					}
					groups[g].ids = append(groups[g].ids, idx)
				}
				return nil
			})
			if err != nil {
				return err
			}
			for _, g := range groups {
				emit(encodeSigKey(g.table, g.sig), encodeIndices(g.ids))
			}
			return nil
		},
		Reduce:         mapreduce.IdentityReduceFunc,
		IdentityReduce: true,
	}, nil
}

// newClusterJob builds the stage-2 job (Algorithm 2): each reduce value
// is one merged bucket in the source's record form; the reducer has the
// source open it, solves it, and emits the bucket's one result record
// under its signature.
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
				emit(key, encodeBucketResult(sol))
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
// from stage-1 output records, each an index list under a
// (table:signature) key. Across the stream every (table, point) must
// appear exactly once — held to stage 2's standard: a lost or repeated
// point is an error, not a silent signature 0 or last write wins.
func signaturesFromPairs(sigPairs []mapreduce.Pair, n, tables int) (*lsh.SignatureSet, error) {
	sigs := lsh.NewSignatureSet(tables, n)
	seen := make([]uint64, (tables*n+63)/64) // bit t*n+idx: that signature has arrived
	arrived := 0
	for _, p := range sigPairs {
		t, sig, err := decodeSigKey(p.Key)
		if err != nil {
			return nil, err
		}
		if t >= tables {
			return nil, fmt.Errorf("core: table %d out of range (have %d)", t, tables)
		}
		ids, err := decodeIndices(p.Value)
		if err != nil {
			return nil, fmt.Errorf("%w, under signature key %s", err, p.Key)
		}
		for _, idx := range ids {
			if idx >= n {
				return nil, fmt.Errorf("core: index %d out of range", idx)
			}
			bit := t*n + idx
			if seen[bit/64]&(1<<(bit%64)) != 0 {
				return nil, fmt.Errorf("core: duplicate signature for table %d, point %d", t, idx)
			}
			seen[bit/64] |= 1 << (bit % 64)
			sigs.Tables[t][idx] = sig
		}
		arrived += len(ids)
	}
	if arrived != tables*n { // none repeated, so one was lost: name the first
		bit := 0
		for seen[bit/64]&(1<<(bit%64)) != 0 {
			bit++
		}
		return nil, fmt.Errorf("core: missing signature for table %d, point %d (%d of %d)", bit/n, bit%n, arrived, tables*n)
	}
	return sigs, nil
}

// solutionsFromLabelPairs converts stage-2 output records back into
// per-bucket solutions aligned with the partition — the inverse of the
// reducer's emission. Every bucket must have exactly one result record
// under its signature, with one label per point of the bucket: a lost,
// repeated or misshapen record is an error, not a silent label 0 or last
// write wins. The shared assembly path then offsets the solutions
// exactly like every other runner's.
func solutionsFromLabelPairs(part *lsh.Partition, pairs []mapreduce.Pair) ([]BucketSolution, error) {
	sigOf := make(map[uint64]int, len(part.Buckets))
	for bi, b := range part.Buckets {
		sigOf[b.Signature] = bi
	}
	sols := make([]BucketSolution, len(part.Buckets))
	solved := make([]bool, len(part.Buckets))
	for _, p := range pairs {
		sig, err := strconv.ParseUint(p.Key, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad result key %q: %w", p.Key, err)
		}
		bi, ok := sigOf[sig]
		if !ok {
			return nil, fmt.Errorf("core: result for unknown bucket %x", sig)
		}
		if solved[bi] {
			return nil, fmt.Errorf("core: duplicate result for bucket %x", sig)
		}
		solved[bi] = true
		if err := decodeBucketResult(p.Value, &sols[bi]); err != nil {
			return nil, fmt.Errorf("core: bucket %x: %w", sig, err)
		}
		if got, want := len(sols[bi].Labels), len(part.Buckets[bi].Indices); got != want {
			return nil, fmt.Errorf("core: bucket %x: %d labels for %d points", sig, got, want)
		}
	}
	for bi, b := range part.Buckets {
		if !solved[bi] {
			return nil, fmt.Errorf("core: bucket %x: missing result", b.Signature)
		}
	}
	return sols, nil
}

// resultKind opens the stage-2 output record, one per bucket:
//
//	'R' │ 0 │ uvarint NNZ │ float64 LE Fill │ uvarint SolveNanos │
//	uvarint GramBytes │ uvarint len(Solver) │ Solver │ uvarint K │
//	uvarint n │ n × uvarint local label, in bucket order
//
// Everything before the labels takes at least 15 bytes, so a 12-byte
// per-point label record of the earlier layout never parses as one.
const resultKind = 'R'

// encodeBucketResult packs a bucket's solution into its result record.
func encodeBucketResult(s BucketSolution) []byte {
	buf := make([]byte, 0, 2+6*binary.MaxVarintLen64+8+len(s.Solver)+2*len(s.Labels))
	buf = append(buf, resultKind, 0)
	buf = binary.AppendUvarint(buf, uint64(s.NNZ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Fill))
	buf = binary.AppendUvarint(buf, uint64(s.SolveNanos))
	buf = binary.AppendUvarint(buf, uint64(s.GramBytes))
	buf = binary.AppendUvarint(buf, uint64(len(s.Solver)))
	buf = append(buf, s.Solver...)
	buf = binary.AppendUvarint(buf, uint64(s.K))
	buf = binary.AppendUvarint(buf, uint64(len(s.Labels)))
	for _, l := range s.Labels {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	return buf
}

// decodeBucketResult is the inverse of encodeBucketResult. K must fit
// int32, every label must be below K, and nothing may follow the labels.
func decodeBucketResult(buf []byte, s *BucketSolution) error {
	if len(buf) < 2 || buf[0] != resultKind || buf[1] != 0 {
		return fmt.Errorf("not a result record")
	}
	rest := buf[2:]
	ok := true
	next := func() uint64 {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			ok = false
			return 0
		}
		rest = rest[n:]
		return v
	}
	var fill float64
	nnz := next()
	if len(rest) >= 8 {
		fill = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	} else {
		ok = false
	}
	nanos, gram, nameLen := next(), next(), next()
	if !ok || nameLen > uint64(len(rest)) {
		return fmt.Errorf("truncated result record")
	}
	solver := string(rest[:nameLen])
	rest = rest[nameLen:]
	k, count := next(), next()
	if !ok {
		return fmt.Errorf("truncated result record")
	}
	if k > math.MaxInt32 {
		return fmt.Errorf("K %d out of range", k)
	}
	// Each label occupies at least one byte, so the declared count bounds
	// the allocation before it happens.
	if count > uint64(len(rest)) {
		return fmt.Errorf("label count %d exceeds payload %d", count, len(rest))
	}
	labels := make([]int, count)
	for i := range labels {
		l := next()
		if !ok {
			return fmt.Errorf("truncated label list")
		}
		if l >= k {
			return fmt.Errorf("label %d outside the bucket's %d clusters", l, k)
		}
		labels[i] = int(l)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes after result record", len(rest))
	}
	*s = BucketSolution{Labels: labels, K: int(k), Solver: solver, NNZ: int64(nnz), Fill: fill, SolveNanos: int64(nanos), GramBytes: int64(gram)}
	return nil
}

// encodeIndices packs an index list — a stage-1 output value (the rows
// of one map task that share a signature) and the stage-2 record of the
// sources whose reducers find the rows themselves — as a uvarint count
// followed by zigzag-varint deltas. Both lists are sorted ascending, so
// the deltas are small positive integers and the record costs about one
// byte per point.
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
