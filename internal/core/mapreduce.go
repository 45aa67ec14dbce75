package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/offheap"
)

// This file is DASC as the paper's two MapReduce jobs (§3.3), written
// once against one rowSource (rowsource.go) and run by one runner on any
// mapreduce.Executor:
//
//	stage 1 (Algorithm 1): hash each input record's rows once per table
//	  and emit one (table:signature, index list) record per signature
//	  the record's rows share — in-mapper combining, so the shuffle
//	  carries O(signatures × map tasks) records, not O(N); the grouped
//	  reduce output is the raw signature partition,
//	stage 2 (Algorithm 2): after the driver merges near-duplicate
//	  signatures, each reducer solves its buckets with the bucketSolver
//	  every other runner uses, emitting one result record per bucket:
//	  its solver stats, K and local labels.
//
// Both jobs travel as a registered name ("dasc-lsh", "dasc-cluster" —
// bench/ tells the stages apart by those suffixes) plus a gob Conf, so
// any process that imports this package can run their tasks. A map runs
// where its input lives, so Run's two MapReduce routes differ in one bit
// of the source, whether a shard reader is present. With one, both jobs
// run and workers read their rows from the shards. Without, the rows are
// the driver's own matrix: the driver hashes them itself, as the
// in-process pool does (hashPoints), and only stage 2 runs as a job, the
// driver writing each bucket's rows into its reduce task's frame.

// mrRunner is the MapReduce backend: the stages that run as jobs run on
// exec, with src answering where their rows live.
type mrRunner struct {
	exec mapreduce.Executor
	src  *rowSource
	ctr  mapreduce.Counters
}

func (*mrRunner) name() string { return "mapreduce" }

// report puts a copy of the counters accumulated across the jobs on the
// result.
func (r *mrRunner) report(res *Result) {
	ctr := r.ctr
	res.MapReduce = &ctr
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

// signatures is stage 1 where the rows live: the dasc-lsh job over a
// shard source, whose mappers stream their own row ranges, or the
// driver's inline hashing of its own matrix, which no row leaves.
func (r *mrRunner) signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	if r.src.points != nil {
		return hashPoints(ctx, p, r.src.points)
	}
	hashers, err := p.Hashers()
	if err != nil {
		return nil, err
	}
	conf := lshConf{Dir: r.src.dir, Tables: make([]lshTable, len(hashers))}
	for t, h := range hashers {
		conf.Tables[t] = lshTable{Dims: h.Dimensions(), Thresholds: h.Thresholds()}
	}
	job, err := newLSHJob(r.src, conf)
	if err != nil {
		return nil, err
	}
	sigPairs, err := r.run(ctx, p, job, "lsh", conf, r.src.lshInput())
	if err != nil {
		return nil, err
	}
	return signaturesFromPairs(sigPairs, p.solver.pol.N, len(hashers))
}

// solve ships each bucket as its index list under its signature; a
// record-carried source's job expands the list into the bucket's rows
// only as its reduce task is dispatched.
func (r *mrRunner) solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]bucketSolution, error) {
	input := make([]mapreduce.Pair, len(part.Buckets))
	for bi, b := range part.Buckets {
		input[bi] = mapreduce.Pair{Key: fmt.Sprintf("%016x", b.Signature), Value: encodeIndices(b.Indices)}
	}
	conf := solveConf{Dir: r.src.dir, Policy: p.solver.pol}
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
// and the shard directory its mappers read (stage 1 runs only over
// shards).
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
	if c.Dir == "" {
		return nil, fmt.Errorf("core: lsh conf names no shard directory; a driver-resident matrix is hashed in the driver")
	}
	src, err := openShardRows(c.Dir)
	if err != nil {
		return nil, err
	}
	return newLSHJob(src, c)
}

func clusterJobFromConf(blob []byte) (*mapreduce.Job, error) {
	var c solveConf
	err := gobDecode(blob, &c)
	if err != nil {
		return nil, fmt.Errorf("core: cluster conf: %w", err)
	}
	src := &rowSource{} // record-carried: the rows arrive in the task frames
	if c.Dir != "" {
		if src, err = openShardRows(c.Dir); err != nil {
			return nil, err
		}
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
// multi-table ensemble) over a shard-backed source: each map task
// streams one shard row range, each row is hashed once per table by the
// lsh.Hasher rebuilt from the shipped thresholds, and the mapper emits
// one (table:signature, index list) record per signature its range's
// rows share — Hadoop's in-mapper combining; the reducer passes records
// through, so the executor's shuffle finishes the per-table signature
// grouping across map tasks.
func newLSHJob(src *rowSource, c lshConf) (*mapreduce.Job, error) {
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
		SplitSize:   1, // one shard row range per map task
		Map: func(_ string, value []byte, emit mapreduce.Emit) error {
			// Groups are kept in first-seen order and emitted only once the
			// whole record is hashed: a short row fails the record with
			// nothing emitted, and no map iteration order reaches the output.
			var groups []sigGroup
			slot := make(map[[2]uint64]int)
			err := src.eachRow(value, func(idx int, row []float64) error {
				// Rows arrive from a shard file; Signature indexes them
				// unchecked.
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
// is one merged bucket in the source's record form, and its one result
// record is emitted under its signature. A worker's reduce task holds
// all its buckets and solves them in one loop (solveTask); a task whose
// buckets stream in (mapreduce.Local) runs that loop once per group.
func newClusterJob(src *rowSource, solver *bucketSolver) *mapreduce.Job {
	return &mapreduce.Job{
		NumReducers: 4,
		Map:         mapreduce.IdentityMapFunc, // buckets arrive formed and encoded
		IdentityMap: true,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			return solveTask(context.Background(), src, solver, []mapreduce.Group{{Key: key, Values: values}}, emit)
		},
		ReduceTask: func(ctx context.Context, groups []mapreduce.Group, emit mapreduce.Emit) error {
			return solveTask(ctx, src, solver, groups, emit)
		},
		Expand: src.expander(),
	}
}

// solveTask is a stage-2 reduce task's bucket loop. It owns one mapping
// for its buckets' rows and one for their solve scratch
// (offheap.Scratch), both made once, before the first solve, at the
// largest bucket's plan (n×dim rows, scratchLen floats), and freed when
// it returns, on every path — so the buckets share their first-touch
// faults and leave the collector nothing to find. Buckets run largest
// first, the in-process loop's LPT order, checking ctx before each. A
// trivial bucket is solved from its size alone: its rows are never
// copied or read. Every bucket's result is emitted under its own key,
// so the engine's sorted task output is in key order.
func solveTask(ctx context.Context, src bucketOpener, solver *bucketSolver, groups []mapreduce.Group, emit mapreduce.Emit) error {
	type item struct {
		key string
		v   []byte
		n   int
		pl  bucketPlan
	}
	var items []item
	maxRows, maxScratch := 0, 0
	for _, g := range groups {
		for _, v := range g.Values {
			n, dim, err := src.bucketShape(v)
			if err != nil {
				return err
			}
			pl := solver.plan(n)
			items = append(items, item{g.Key, v, n, pl})
			if pl.Class != classTrivial {
				maxRows, maxScratch = max(maxRows, n*dim), max(maxScratch, pl.scratchLen(n))
			}
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].n > items[b].n })
	var rows, scratch offheap.Scratch
	defer rows.Free()
	defer scratch.Free()
	rows.Reserve(maxRows)
	scratch.Reserve(maxScratch)
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return err
		}
		if it.pl.Class == classTrivial {
			emit(it.key, encodeBucketResult(trivialSolution(it.pl, it.n)))
			continue
		}
		b, err := src.openBucket(it.v, rows.Buf)
		if err != nil {
			return err
		}
		sol, err := solver.solve(b, &scratch.Buf)
		if err != nil {
			return err
		}
		emit(it.key, encodeBucketResult(sol))
	}
	return nil
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
func solutionsFromLabelPairs(part *lsh.Partition, pairs []mapreduce.Pair) ([]bucketSolution, error) {
	sigOf := make(map[uint64]int, len(part.Buckets))
	for bi, b := range part.Buckets {
		sigOf[b.Signature] = bi
	}
	sols := make([]bucketSolution, len(part.Buckets))
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
func encodeBucketResult(s bucketSolution) []byte {
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
func decodeBucketResult(buf []byte, s *bucketSolution) error {
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
	*s = bucketSolution{Labels: labels, K: int(k), Solver: solver, NNZ: int64(nnz), Fill: fill, SolveNanos: int64(nanos), GramBytes: int64(gram)}
	return nil
}

// encodeIndices packs an index list — a stage-1 output value (the rows
// of one map task that share a signature) and every stage-2 input
// record — as a uvarint count followed by zigzag-varint deltas. Every
// list is sorted ascending, so the deltas are small positive integers
// and the record costs about one byte per point.
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
	count, deltas, err := indexCount(buf)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, count)
	if err := eachIndex(count, deltas, math.MaxInt32+1, func(idx int) { out = append(out, idx) }); err != nil {
		return nil, err
	}
	return out, nil
}
