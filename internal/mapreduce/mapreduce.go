// Package mapreduce is a self-contained MapReduce runtime with the
// same dataflow semantics as the Hadoop deployment the paper runs DASC
// on: jobs are a map phase over key/value pairs, a partitioned sorted
// shuffle, and a reduce phase over grouped keys, with an optional
// combiner. There is one job engine (runJob, engine.go) and one task
// body (executeTask); the two executors differ only in where tasks run —
// Local on a bounded goroutine pool, the TCP Master on worker processes
// over real sockets speaking one binary frame format (see tcp.go and
// wire.go).
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
)

// Pair is one key/value record. Values are opaque bytes; typed adapters
// encode them as they see fit.
type Pair struct {
	Key   string
	Value []byte
}

// Emit receives output records from map and reduce functions.
type Emit func(key string, value []byte)

// MapFunc processes one input record, emitting intermediate records.
type MapFunc func(key string, value []byte, emit Emit) error

// ReduceFunc processes all intermediate values grouped under one key.
type ReduceFunc func(key string, values [][]byte, emit Emit) error

// Job describes one MapReduce stage.
type Job struct {
	// Name identifies the job in errors and to TCP workers (see factory.go).
	Name string
	// Map is required.
	Map MapFunc
	// Reduce is required.
	Reduce ReduceFunc
	// IdentityMap declares that Map behaves exactly like IdentityMapFunc
	// (emit the record unchanged) and IdentityReduce that Reduce behaves
	// exactly like IdentityReduceFunc (emit the group's values, in order,
	// under its key). The job's author states them next to the closure
	// they describe — a property of the job, not a runtime setting. The
	// job engine does not dispatch a declared phase: for an identity map
	// it partitions and sorts each input split itself and feeds the usual
	// run/spill path; for an identity reduce the merged partitions are
	// the output. Output pairs are byte-identical, in the same order, to
	// executing the closures, on any executor at any SpillBytes and
	// Compress setting; a declaration that does not match its closure
	// changes the output (the elision tests show how that is caught).
	// Map and Reduce stay required: they are the specification the
	// declarations are tested against. The decision is made where the job
	// is run (on TCP, in the master's process): no frame kind, hello or
	// task field changes, and workers — including external
	// cmd/dascworker processes — simply never see the elided phase's
	// tasks.
	IdentityMap    bool
	IdentityReduce bool
	// Combine optionally pre-aggregates map output per split before the
	// shuffle, with reduce semantics.
	Combine ReduceFunc
	// NumReducers sets the number of reduce partitions (default 1).
	NumReducers int
	// Partition maps a key to a reduce partition (default FNV-1a hash).
	Partition func(key string, numReducers int) int
	// SplitSize caps records per map task (default 1024).
	SplitSize int
	// SpillBytes bounds the executor-side in-memory buffer of map-side
	// sorted runs (measured as their on-disk framed size, Hadoop's
	// io.sort.mb analogue). When the buffer exceeds the budget, every
	// buffered run is flushed to a per-partition spill file and the
	// shuffle merges from disk (see spill.go). 0 keeps the shuffle fully
	// in memory. Either way a reduce partition is merged only as it is
	// consumed. Output is bit-identical at any setting.
	SpillBytes int64
	// Compress turns on the lossless data-plane compression paths for
	// this job: spill runs are deflated on flush (and inflated as the
	// merge refills its windows), and TCP frames compress bodies above
	// CompressThreshold in both directions. Off by default; output is
	// bit-identical either way, only the bytes moved change.
	Compress bool
	// Conf is an opaque configuration blob for factory-built jobs: it
	// travels with every TCP task so worker processes can rebuild the
	// job via their RegisterFactory entry (see factory.go). Jobs without
	// Conf require the closure-carrying Register path, which only works
	// inside one process.
	Conf []byte
}

// Counters reports work volume for a run, mirroring Hadoop job counters.
type Counters struct {
	// MapTasks / ReduceTasks count the tasks the executor dispatched to
	// its workers: zero for a phase the job declares an identity (see
	// Job.IdentityMap), whose records the executor moves itself.
	MapTasks    int
	ReduceTasks int
	// InputRecords and OutputRecords count the job's input and output
	// records; MapOutputs counts the records entering the shuffle — map
	// output after the combiner, if the job has one, which is the
	// quantity the engine observes whichever side of a wire the combiner
	// ran on. None depends on the executor, or on whether a phase was
	// dispatched or elided.
	InputRecords int
	MapOutputs   int
	// ShuffleBytes sizes the map output crossing the shuffle. The Local
	// executor reports the key+value byte sum (no wire exists); the TCP
	// executor reports the actual encoded bytes of the map-result frames
	// received from workers, which is always at least the Local
	// approximation (framing adds sequence numbers and length prefixes)
	// — and therefore zero when the map phase is elided: the records
	// reach the shuffle without crossing the wire.
	ShuffleBytes  int64
	OutputRecords int
	// WireBytesOut / WireBytesIn count every encoded byte the TCP
	// master wrote to / read from worker sockets across the dispatched
	// phases, including hellos and frame headers (an elided phase moves
	// no bytes). Zero for the Local executor.
	WireBytesOut int64
	WireBytesIn  int64
	// EncodeNanos / DecodeNanos are the master-side wall time spent
	// inside the wire codec, for wire-vs-compute accounting.
	EncodeNanos int64
	DecodeNanos int64
	// EmbedBytes / EmbedNanos are zero on every driver: buckets travel as
	// raw rows and are embedded inside the solve, where the cost lands in
	// SolveNanos. They remain only because the benchmark harness still
	// reads them (embed.record_mb, embed.map_side_s), and go together
	// with those two metrics.
	EmbedBytes int64
	EmbedNanos int64
	// SpillBytes / SpillNanos account the out-of-core shuffle: the bytes
	// written to spill run files when Job.SpillBytes forces map output
	// to disk, and the wall time spent inside those writes. Zero when
	// nothing spilled.
	SpillBytes int64
	SpillNanos int64
	// ShardReadBytes counts bytes demand-read from input shard files by
	// sharded jobs (see internal/shard). The driver and workers in its
	// process (Local, or TCP workers started in-process) are metered by
	// the run's own shard reader — which concurrent runs on the same
	// directory share, so each of them counts the others' reads too;
	// external TCP worker processes ship their meter back on result
	// frames (see SetShardMeter) and the master folds the de-duplicated
	// per-process spans in here.
	ShardReadBytes int64
	// ShardReadOps / ShardCoalescedReads count the ReadAt calls issued
	// against shard files and how many of those served more than one
	// requested row (a gather over adjacent rows, or a range or stream
	// read of several rows). Process-local, like the in-process part of
	// ShardReadBytes.
	ShardReadOps        int64
	ShardCoalescedReads int64
	// CompressedBytes is how many bytes Job.Compress removed from the
	// data plane: raw-minus-encoded summed over compressed wire frames
	// (both directions, master side) and spill runs. CompressNanos is
	// the master-side wall time inside the wire codec's flate passes;
	// spill-side flate time is part of SpillNanos.
	CompressedBytes int64
	CompressNanos   int64
}

// Add accumulates o into c field-wise, for drivers that chain several
// jobs and want one aggregate (e.g. the DASC two-stage pipeline).
func (c *Counters) Add(o *Counters) {
	if o == nil {
		return
	}
	c.MapTasks += o.MapTasks
	c.ReduceTasks += o.ReduceTasks
	c.InputRecords += o.InputRecords
	c.MapOutputs += o.MapOutputs
	c.ShuffleBytes += o.ShuffleBytes
	c.OutputRecords += o.OutputRecords
	c.WireBytesOut += o.WireBytesOut
	c.WireBytesIn += o.WireBytesIn
	c.EncodeNanos += o.EncodeNanos
	c.DecodeNanos += o.DecodeNanos
	c.EmbedBytes += o.EmbedBytes
	c.EmbedNanos += o.EmbedNanos
	c.SpillBytes += o.SpillBytes
	c.SpillNanos += o.SpillNanos
	c.ShardReadBytes += o.ShardReadBytes
	c.ShardReadOps += o.ShardReadOps
	c.ShardCoalescedReads += o.ShardCoalescedReads
	c.CompressedBytes += o.CompressedBytes
	c.CompressNanos += o.CompressNanos
}

// IdentityMapFunc and IdentityReduceFunc are the pass-through phases
// Job.IdentityMap and Job.IdentityReduce stand for. A job that forwards
// its records through one side (DASC's stage-1 reduce only groups, its
// stage-2 map only hands on the buckets the driver formed) sets the
// function and the declaration together; the function is what runs when
// the declaration is cleared, and what the elision tests compare with.
func IdentityMapFunc(key string, value []byte, emit Emit) error {
	emit(key, value)
	return nil
}

func IdentityReduceFunc(key string, values [][]byte, emit Emit) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

// Executor runs jobs.
type Executor interface {
	// Run executes the job over the input and returns reduce output in
	// deterministic (key-sorted, then emission) order. A zero-length
	// value is delivered as nil: whatever a record's value was when it
	// was handed in or emitted, Map, Combine and Reduce receive nil for
	// an empty one and so does the caller in the output, on every
	// executor and whether a phase was executed or elided.
	Run(job *Job, input []Pair) ([]Pair, *Counters, error)
}

// emptyToNil is where the Executor empty-value rule is enforced. Every
// record passes through it wherever it changes hands: collect (all
// emitted records, and an elided map's input to a combiner),
// mapSideRuns (all records entering the shuffle, elided map phases
// included), the frame parser and the spill-run reader (all records read
// back off the wire or off disk), and the task body's call of Map
// (input records).
func emptyToNil(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	return v
}

// collect returns the Emit every map, combine and reduce call in this
// package is handed: it appends the record to *dst.
func collect(dst *[]Pair) Emit {
	return func(k string, v []byte) { *dst = append(*dst, Pair{k, emptyToNil(v)}) }
}

// ContextExecutor is an Executor that honors deadlines and
// cancellation. The built-in executors (Local and the TCP Master)
// implement it; Run is equivalent to RunContext with
// context.Background().
type ContextExecutor interface {
	Executor
	// RunContext executes the job, returning promptly with ctx.Err()
	// (wrapped) when the context is cancelled or its deadline passes.
	RunContext(ctx context.Context, job *Job, input []Pair) ([]Pair, *Counters, error)
}

// RunWithContext runs the job on exec under ctx. Executors that
// implement ContextExecutor get full cooperative cancellation of
// in-flight map and reduce work; for a plain Executor the context is
// only checked before the (uninterruptible) Run call.
func RunWithContext(ctx context.Context, exec Executor, job *Job, input []Pair) ([]Pair, *Counters, error) {
	if ce, ok := exec.(ContextExecutor); ok {
		return ce.RunContext(ctx, job, input)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
	}
	return exec.Run(job, input)
}

// ErrBadJob reports an incomplete job description.
var ErrBadJob = errors.New("mapreduce: bad job")

func (j *Job) validate() error {
	if j.Map == nil || j.Reduce == nil {
		return fmt.Errorf("%w: %q needs Map and Reduce", ErrBadJob, j.Name)
	}
	if j.NumReducers < 0 || j.SplitSize < 0 || j.SpillBytes < 0 {
		return fmt.Errorf("%w: %q has negative sizing", ErrBadJob, j.Name)
	}
	return nil
}

func (j *Job) numReducers() int {
	if j.NumReducers == 0 {
		return 1
	}
	return j.NumReducers
}

func (j *Job) splitSize() int {
	if j.SplitSize == 0 {
		return 1024
	}
	return j.SplitSize
}

func (j *Job) partition(key string) int {
	n := j.numReducers()
	if j.Partition != nil {
		p := j.Partition(key, n)
		if p < 0 || p >= n {
			p = ((p % n) + n) % n
		}
		return p
	}
	return DefaultPartition(key, n)
}

// DefaultPartition hashes the key with FNV-1a, Hadoop's
// hash-partitioner analogue.
func DefaultPartition(key string, numReducers int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key)) // fnv.Write cannot fail
	return int(h.Sum32() % uint32(numReducers))
}

// splits cuts the input into map tasks of at most splitSize records.
func splits(input []Pair, splitSize int) [][]Pair {
	var out [][]Pair
	for start := 0; start < len(input); start += splitSize {
		out = append(out, input[start:min(start+splitSize, len(input))])
	}
	return out
}

// mapSideRuns turns one map task's output into its per-partition
// key-sorted runs — the map-side sort of the merge shuffle — applying the
// job's combiner first (the only source of an error). Sorting here
// parallelizes across map tasks and keeps the engine's shuffle a pure
// merge. Shared by the task body and the engine's elided map phase.
func mapSideRuns(job *Job, numReducers int, local []Pair) ([][]Pair, error) {
	if job.Combine != nil {
		combined, err := runCombine(job.Combine, local)
		if err != nil {
			return nil, err
		}
		local = combined
	}
	parts := make([][]Pair, numReducers)
	for _, p := range local {
		idx := job.partition(p.Key)
		p.Value = emptyToNil(p.Value)
		parts[idx] = append(parts[idx], p)
	}
	for _, part := range parts {
		sortPairs(part)
	}
	return parts, nil
}

// identityMapOutput is the output of an elided map task: the split
// itself. The combiner sorts its input in place, so a job that has one
// gets a copy — made the way collect would have made it — and the
// caller's input stays untouched.
func identityMapOutput(job *Job, split []Pair) []Pair {
	if job.Combine == nil {
		return split
	}
	out := make([]Pair, 0, len(split))
	emit := collect(&out)
	for _, p := range split {
		emit(p.Key, p.Value)
	}
	return out
}

// runCombine applies a combiner to one split's map output.
func runCombine(combine ReduceFunc, pairs []Pair) ([]Pair, error) {
	sortPairs(pairs)
	var out []Pair
	emit := collect(&out)
	err := groupSorted(sliceLoad(pairs), func(key string, values [][]byte) error {
		return combine(key, values, emit)
	})
	return out, err
}
