package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/par"
)

// taskMsg is one unit of work: a map task over an input split or a
// reduce task over a merged partition. The exported fields are what a
// task frame carries master -> worker (see wire.go).
type taskMsg struct {
	Seq     int
	JobName string
	Phase   string // "map" or "reduce"
	// Conf carries the factory configuration for closure-free jobs.
	Conf []byte
	// NumReducers tells map tasks how to partition their output.
	NumReducers int
	Records     []Pair

	// Flags carries per-job wire options (taskFlag* bits, e.g. "compress
	// your result frames").
	Flags uint64

	// load stands in for Records on every reduce task the engine builds:
	// the k-way merge of the partition's runs as a stream of loadRecords
	// records. The pool runner feeds it straight to the reducer, so Local
	// never holds a partition whole. The wire runner collects it into
	// Records just before encoding — a frame needs its exact size — so only
	// the in-flight window's partitions are resident in the master; the
	// copy queued for requeue keeps load and nil Records, and a requeue or
	// straggler re-dispatch re-merges from the runs. Never shipped: a
	// worker's reduce task has Records and no load.
	load        recordStream
	loadRecords int
	// expand is the job's Expand on the tasks of the phase its input
	// records reach first (see Job.Expand): the pool runner expands each
	// value as the task runs, the wire runner as it writes the frame.
	// Never shipped: a worker's task arrives expanded.
	expand Expander
	// frame is the frame body a worker's Records, Conf and values alias,
	// mapped outside the Go heap for exactly this task (see
	// RunWorkerContext). Never shipped.
	frame []byte
}

// recordStream delivers key-sorted records to emit, in order and a
// stretch at a time, and stops at emit's first error. A stretch is the
// stream's own memory: emit must not keep or change the slice (the
// pairs' keys and values it may keep).
type recordStream func(emit func([]Pair) error) error

// resultMsg is a task's outcome.
type resultMsg struct {
	Seq int
	// Parts holds per-partition map output (each partition key-sorted),
	// or a single key-sorted slice of reduce output at index 0.
	Parts [][]Pair
	Err   string

	// Shard meter snapshot (see SetShardMeter): the worker's
	// process-cumulative shard bytes read before (ShardStart) and after
	// (ShardEnd) this task, tagged with the worker's process token. All
	// zero when the worker has read no shard bytes at all.
	ShardTok   uint64
	ShardStart int64
	ShardEnd   int64

	// err is the task's failure as executeTask saw it, so an in-process
	// runner returns errors that still answer errors.Is (context.Canceled,
	// a user sentinel). Only the wire flattens it into Err. Never shipped.
	err error
}

// taskRunner is the part of an executor that differs between them: where
// a phase's tasks execute. Local's is a goroutine pool calling
// executeTask directly (local.go), the Master's the pipelined wire
// dispatcher whose workers call the same executeTask (tcp.go). run
// executes every task and hands each result to sink as it lands — from
// any goroutine, several at once — returning once the last result is in,
// or with the first task, sink or context error.
type taskRunner interface {
	run(ctx context.Context, tasks []taskMsg, sink func(*resultMsg) error) error
}

// runJob is the job engine, the only implementation of a MapReduce job
// in this package: validation, splits, phase elision, the shuffle buffer
// and its spill, the per-partition merge, reduce dispatch-or-elide, the
// final assembly merge and every counter that does not depend on where
// tasks execute — so fault handling and per-task spans have one loop to
// land in. It returns the reduce output in deterministic (key-sorted,
// then emission) order, independent of the runner, of how tasks
// interleave, and of SpillBytes and Compress.
//
// ShuffleBytes is filled with the key+value byte sum of the records
// entering the shuffle, which is what an executor without a wire reports;
// the Master replaces it with the frame bytes it metered.
func runJob(ctx context.Context, job *Job, input []Pair, runner taskRunner) (_ []Pair, _ *Counters, err error) {
	if err := job.validate(); err != nil {
		return nil, nil, err
	}
	numReducers := job.numReducers()
	ctr := &Counters{InputRecords: len(input)}
	var flags uint64
	if job.Compress {
		flags |= taskFlagCompress
	}

	// ---- map phase ----
	// Every map-side result, dispatched or elided, enters the shuffle
	// buffer as it lands, keyed by its task Seq (the merge's tie-break
	// order). With a SpillBytes budget the buffer flushes to disk, so no
	// more than the in-flight results are ever resident.
	ss := newSpillSet(numReducers, job.SpillBytes, job.Compress)
	defer func() { err = errors.Join(err, ss.Close()) }()
	sink := func(res *resultMsg) error {
		if len(res.Parts) > numReducers {
			return fmt.Errorf("partition %d of %d", len(res.Parts)-1, numReducers)
		}
		return ss.add(res.Seq, res.Parts)
	}
	inputSplits := splits(input, job.splitSize())
	if job.IdentityMap {
		// Elided: each split is its own map output, partitioned and sorted
		// here exactly as a task would have. One after another — the
		// records are already in this process's memory and partitioning
		// them costs less than a task's dispatch.
		for seq, split := range inputSplits {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, cerr)
			}
			parts, cerr := mapSideRuns(job, numReducers, identityMapOutput(job, split))
			if cerr != nil {
				return nil, nil, fmt.Errorf("mapreduce: %s combine: %w", job.Name, cerr)
			}
			if serr := sink(&resultMsg{Seq: seq, Parts: parts}); serr != nil {
				return nil, nil, fmt.Errorf("mapreduce: %s: split %d: %w", job.Name, seq, serr)
			}
		}
	} else {
		ctr.MapTasks = len(inputSplits)
		tasks := make([]taskMsg, len(inputSplits))
		for seq, split := range inputSplits {
			tasks[seq] = taskMsg{Seq: seq, JobName: job.Name, Phase: "map", Conf: job.Conf, NumReducers: numReducers, Records: split, Flags: flags,
				expand: job.Expand}
		}
		if err := runner.run(ctx, tasks, sink); err != nil {
			return nil, nil, err
		}
	}

	// ---- shuffle and reduce phase ----
	// A partition is the k-way merge of its map-side runs, in map task
	// order so ties reproduce the stable concat+sort order, and it is
	// merged where it is consumed, through ss.load — never here. Dispatched
	// or elided, the output is one key-sorted run per partition and assembly
	// is the same tie-broken merge, in partition order.
	ctr.MapOutputs, ctr.ShuffleBytes = ss.shuffled()
	outRuns := make([][]Pair, numReducers)
	if job.IdentityReduce {
		// Elided: the merged partitions are the output. Merging is compute,
		// so it draws on the process's one budget (internal/par), not on the
		// executor's task slots; the partitions are independent.
		merr := par.Each(numReducers, numReducers, func(p int) (err error) {
			if err = ctx.Err(); err == nil {
				outRuns[p], err = collectPairs(ss.load(p), ss.partitionRecords(p))
			}
			return err
		})
		if merr != nil {
			return nil, nil, fmt.Errorf("mapreduce: %s: shuffle: %w", job.Name, merr)
		}
	} else {
		ctr.ReduceTasks = numReducers
		var expand Expander
		if job.IdentityMap { // the partitions hold the input records
			expand = job.Expand
		}
		tasks := make([]taskMsg, numReducers)
		for p := range tasks {
			tasks[p] = taskMsg{Seq: p, JobName: job.Name, Phase: "reduce", Conf: job.Conf, Flags: flags,
				load: ss.load(p), loadRecords: ss.partitionRecords(p), expand: expand}
		}
		err := runner.run(ctx, tasks, func(res *resultMsg) error {
			if len(res.Parts) > 0 {
				outRuns[res.Seq] = res.Parts[0] // tasks return their output key-sorted
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	out := MergeRuns(outRuns)
	ctr.OutputRecords = len(out)
	var raw int64
	ctr.SpillBytes, raw, ctr.SpillNanos = ss.stats()
	ctr.CompressedBytes = raw - ctr.SpillBytes
	return out, ctr, nil
}

// executeTask is the task body: the only place a map or reduce task
// runs, for the pool runner on the *Job its executor was handed and for a
// TCP worker on the job it resolved from the task's name. It checks ctx
// between records and between groups, so a cancelled task returns within
// one user Map or Reduce call. A failure comes back in the result's err,
// naming the job and the stage.
func executeTask(ctx context.Context, job *Job, task *taskMsg) resultMsg {
	res := resultMsg{Seq: task.Seq}
	fail := func(stage string, err error) resultMsg {
		res.err = fmt.Errorf("%s %s: %w", job.Name, stage, err)
		return res
	}
	switch task.Phase {
	case "map":
		var local []Pair
		emit := collect(&local)
		for _, rec := range task.Records {
			if err := ctx.Err(); err != nil {
				return fail("map", err)
			}
			value, err := expandValue(task.expand, rec.Value)
			if err == nil {
				err = job.Map(rec.Key, emptyToNil(value), emit)
			}
			if err != nil {
				return fail("map", err)
			}
		}
		parts, err := mapSideRuns(job, task.NumReducers, local)
		if err != nil {
			return fail("combine", err)
		}
		res.Parts = parts
	case "reduce":
		load := task.load
		if load == nil {
			// Off the wire. The merge shuffle delivers the partition
			// key-sorted; the sort call is the O(n) already-sorted fast path
			// kept as a contract check against a master that did not merge.
			sortPairs(task.Records)
			load = sliceLoad(task.Records)
		}
		var out []Pair
		emit := collect(&out)
		var err error
		if job.ReduceTask != nil && task.load == nil {
			// Off the wire, every group is in the task's frame (and arrived
			// expanded): the job takes the task whole.
			var groups []Group
			err = groupSorted(load, func(key string, values [][]byte) error {
				groups = append(groups, Group{Key: key, Values: values})
				return nil
			})
			if err == nil {
				err = job.ReduceTask(ctx, groups, emit)
			}
		} else {
			err = groupSorted(load, func(key string, values [][]byte) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				if task.expand != nil {
					for i, v := range values {
						var err error
						if values[i], err = expandValue(task.expand, v); err != nil {
							return err
						}
					}
				}
				return job.Reduce(key, values, emit)
			})
		}
		if err != nil {
			return fail("reduce", err)
		}
		// Sort the output inside the task, in parallel across tasks, so
		// the final assembly is a pure merge.
		sortPairs(out)
		res.Parts = [][]Pair{out}
	default:
		return fail("task", fmt.Errorf("unknown phase %q", task.Phase))
	}
	return res
}

// expandValue returns the value ref stands for under x, in a buffer of
// its own, or ref itself when x is nil.
func expandValue(x Expander, ref []byte) ([]byte, error) {
	if x == nil {
		return ref, nil
	}
	n := x.Len(ref)
	buf := bytes.NewBuffer(make([]byte, 0, n))
	if err := x.Expand(buf, ref); err != nil {
		return nil, err
	}
	if buf.Len() != n {
		return nil, fmt.Errorf("expansion of %d bytes, %d announced", buf.Len(), n)
	}
	return buf.Bytes(), nil
}

// sliceLoad is the load form of records that are already resident.
func sliceLoad(pairs []Pair) recordStream {
	return func(emit func([]Pair) error) error { return emit(pairs) }
}

// collectPairs drains a load of n records into a slice of exactly that
// capacity.
func collectPairs(load recordStream, n int) ([]Pair, error) {
	out := make([]Pair, 0, n)
	err := load(func(stretch []Pair) error {
		out = append(out, stretch...)
		return nil
	})
	return out, err
}

// groupSorted folds a key-sorted record stream into (key, values) groups
// and calls fn once per group, holding one group at a time — so a stream
// that is a merge of runs is never held whole.
func groupSorted(load recordStream, fn func(key string, values [][]byte) error) error {
	var (
		key  string
		vals [][]byte
	)
	err := load(func(stretch []Pair) error {
		for _, kv := range stretch {
			if vals != nil && kv.Key == key {
				vals = append(vals, kv.Value)
				continue
			}
			if vals != nil {
				if err := fn(key, vals); err != nil {
					return err
				}
			}
			// Sized by the previous group: a job's groups tend to be alike,
			// and a reducer may keep its values, so the slice cannot be reused.
			key, vals = kv.Key, append(make([][]byte, 0, max(len(vals), 1)), kv.Value)
		}
		return nil
	})
	if err != nil || vals == nil {
		return err
	}
	return fn(key, vals)
}

// forEachBounded calls fn(0) … fn(n-1), at most workers at a time, and
// returns the error of the lowest failing index — the same one however
// the calls interleave. fn checks for cancellation itself.
func forEachBounded(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
