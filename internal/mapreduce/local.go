package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Local executes jobs in-process with a bounded worker pool — the
// single-machine analogue of a Hadoop task tracker with W slots.
type Local struct {
	// Workers caps concurrent map (and reduce) tasks
	// (default runtime.GOMAXPROCS(0)).
	Workers int
}

var _ ContextExecutor = (*Local)(nil)

// Run implements Executor.
func (l *Local) Run(job *Job, input []Pair) ([]Pair, *Counters, error) {
	return l.RunContext(context.Background(), job, input)
}

// RunContext implements ContextExecutor: cancellation is checked
// between records inside every map and reduce task, so a mid-job
// cancel returns within one user map/reduce call. With Job.SpillBytes
// set, map-side runs spill to per-partition disk files beyond the
// budget and each reduce partition is merge-grouped straight from its
// runs — never materialized whole — with bit-identical output.
func (l *Local) RunContext(ctx context.Context, job *Job, input []Pair) (_ []Pair, _ *Counters, err error) {
	if err := job.validate(); err != nil {
		return nil, nil, err
	}
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	numReducers := job.numReducers()
	ctr := &Counters{InputRecords: len(input)}

	var ss *spillSet
	if job.SpillBytes > 0 {
		ss = newSpillSet(numReducers, job.SpillBytes, job.Compress)
		defer func() { err = errors.Join(err, ss.Close()) }()
	}

	tasks := splits(input, job.splitSize())
	if !job.IdentityMap {
		ctr.MapTasks = len(tasks)
	}

	// Map phase: each task produces per-partition output slices. An
	// identity map is elided — the split is its own output — but still
	// partitioned and sorted on the pool like any other task's.
	type mapResult struct {
		parts [][]Pair
		err   error
	}
	results := make([]mapResult, len(tasks))
	var mapOutputs atomic.Int64

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for t := range tasks {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local []Pair
			if job.IdentityMap {
				if err := ctx.Err(); err != nil {
					results[t].err = fmt.Errorf("mapreduce: %s map: %w", job.Name, err)
					return
				}
				local = identityMapOutput(job, tasks[t])
			} else {
				emit := collect(&local)
				for _, rec := range tasks[t] {
					if err := ctx.Err(); err != nil {
						results[t].err = fmt.Errorf("mapreduce: %s map: %w", job.Name, err)
						return
					}
					if err := job.Map(rec.Key, emptyToNil(rec.Value), emit); err != nil {
						results[t].err = fmt.Errorf("mapreduce: %s map: %w", job.Name, err)
						return
					}
				}
			}
			// Map-side sort: each partition leaves the task as a
			// key-sorted run, so the shuffle below is a pure merge.
			parts, err := mapSideRuns(job, numReducers, local)
			if err != nil {
				results[t].err = fmt.Errorf("mapreduce: %s combine: %w", job.Name, err)
				return
			}
			for _, part := range parts {
				mapOutputs.Add(int64(len(part)))
			}
			if ss != nil {
				// Out-of-core mode: runs go to the spill manager (keyed by
				// task index, the merge's tie-break order) instead of
				// staying resident per task.
				results[t].err = ss.add(t, parts)
				return
			}
			results[t].parts = parts
		}(t)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
	}
	for _, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
	}
	ctr.MapOutputs = int(mapOutputs.Load())
	if !job.IdentityReduce {
		ctr.ReduceTasks = numReducers
	}

	type reduceResult struct {
		out []Pair
		err error
	}
	red := make([]reduceResult, numReducers)
	var shuffleBytes atomic.Int64

	if ss != nil {
		// Out-of-core shuffle + reduce, fused per partition: stream the
		// k-way merge of the partition's runs (disk segments and
		// still-buffered memory runs, in map-task order) through a
		// grouper straight into the reducer, so the partition is never
		// resident as one slice. Same merge order, same groups, same
		// output as the in-memory path. An identity reduce is elided: the
		// merged stream is the partition's output.
		if err := ss.seal(); err != nil {
			return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
		}
		for p := 0; p < numReducers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if ctx.Err() != nil {
					return // reported once, after the phase
				}
				runs := ss.partitionRuns(p)
				emit := collect(&red[p].out)
				g := &grouper{fn: func(key string, values [][]byte) error {
					if err := ctx.Err(); err != nil {
						return err
					}
					return job.Reduce(key, values, emit)
				}}
				deliver := g.add
				if job.IdentityReduce {
					deliver = func(kv Pair) error {
						red[p].out = append(red[p].out, kv)
						return nil
					}
				}
				merr := MergeRunReaders(runs, func(kv Pair) error {
					shuffleBytes.Add(int64(len(kv.Key) + len(kv.Value)))
					return deliver(kv)
				})
				if merr == nil {
					merr = g.flush()
				}
				if cerr := closeRuns(runs); merr == nil {
					merr = cerr
				}
				if merr != nil {
					red[p].err = fmt.Errorf("mapreduce: %s reduce: %w", job.Name, merr)
					return
				}
				sortPairs(red[p].out)
			}(p)
		}
		wg.Wait()
		ctr.ShuffleBytes = shuffleBytes.Load()
		var raw int64
		ctr.SpillBytes, raw, ctr.SpillNanos = ss.stats()
		ctr.CompressedBytes = raw - ctr.SpillBytes
	} else {
		// Shuffle: k-way merge each reduce partition's sorted runs, in map
		// task order so ties reproduce the stable concat+sort order. The
		// per-partition merges are independent and run on the worker pool.
		partitions := make([][]Pair, numReducers)
		for p := range partitions {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if ctx.Err() != nil {
					return // reported once, after the phase
				}
				runs := make([][]Pair, 0, len(results))
				for _, r := range results {
					if p < len(r.parts) && len(r.parts[p]) > 0 {
						runs = append(runs, r.parts[p])
					}
				}
				merged := MergeRuns(runs)
				var bytes int64
				for _, kv := range merged {
					bytes += int64(len(kv.Key) + len(kv.Value))
				}
				shuffleBytes.Add(bytes)
				partitions[p] = merged
			}(p)
		}
		wg.Wait()
		ctr.ShuffleBytes = shuffleBytes.Load()

		// Reduce phase. An identity reduce is elided: the merged
		// partitions are the output.
		for p := range partitions {
			if job.IdentityReduce {
				red[p].out = partitions[p]
				continue
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				// The merge shuffle delivers the partition key-sorted; the
				// sort call is the O(n) already-sorted fast path kept as a
				// contract check against custom shuffles.
				pairs := partitions[p]
				sortPairs(pairs)
				emit := collect(&red[p].out)
				err := groupSorted(pairs, func(key string, values [][]byte) error {
					if err := ctx.Err(); err != nil {
						return err
					}
					return job.Reduce(key, values, emit)
				})
				if err != nil {
					red[p].err = fmt.Errorf("mapreduce: %s reduce: %w", job.Name, err)
					return
				}
				// Sort this partition's output inside the task so the final
				// assembly is a pure merge.
				sortPairs(red[p].out)
			}(p)
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
	}

	outRuns := make([][]Pair, 0, len(red))
	for _, r := range red {
		if r.err != nil {
			return nil, nil, r.err
		}
		if len(r.out) > 0 {
			outRuns = append(outRuns, r.out)
		}
	}
	out := MergeRuns(outRuns)
	ctr.OutputRecords = len(out)
	return out, ctr, nil
}

// Chain runs a sequence of jobs, feeding each job's output to the next.
func Chain(exec Executor, input []Pair, jobs ...*Job) ([]Pair, []*Counters, error) {
	return ChainContext(context.Background(), exec, input, jobs...)
}

// ChainContext runs a sequence of jobs under ctx, feeding each job's
// output to the next and stopping at the first error or cancellation.
func ChainContext(ctx context.Context, exec Executor, input []Pair, jobs ...*Job) ([]Pair, []*Counters, error) {
	var counters []*Counters
	cur := input
	for _, j := range jobs {
		out, ctr, err := RunWithContext(ctx, exec, j, cur)
		if err != nil {
			return nil, counters, err
		}
		counters = append(counters, ctr)
		cur = out
	}
	return cur, counters, nil
}
