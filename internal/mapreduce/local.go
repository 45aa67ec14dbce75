package mapreduce

import (
	"context"
	"fmt"
	"runtime"
)

// Local executes jobs in-process: the job engine (runJob) over a bounded
// goroutine pool — the single-machine analogue of a Hadoop task tracker
// with W slots.
type Local struct {
	// Workers is the number of task slots: how many map (or reduce)
	// tasks are in flight at once (default runtime.GOMAXPROCS(0)), the
	// Local analogue of TCPConfig.MinWorkers. It is not a CPU budget — a
	// task also waits on shard and spill reads — and the compute loops
	// inside a task draw on internal/par's budget, whatever this is.
	Workers int
}

var _ ContextExecutor = (*Local)(nil)

// Run implements Executor.
func (l *Local) Run(job *Job, input []Pair) ([]Pair, *Counters, error) {
	return l.RunContext(context.Background(), job, input)
}

// RunContext implements ContextExecutor: cancellation is checked
// between records inside every map and reduce task, so a mid-job
// cancel returns within one user map/reduce call. Each reduce partition
// is merge-grouped straight from its runs — never held whole —
// whether they are resident or, with Job.SpillBytes set, spilled to
// per-partition disk files beyond the budget, with bit-identical output.
func (l *Local) RunContext(ctx context.Context, job *Job, input []Pair) ([]Pair, *Counters, error) {
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runJob(ctx, job, input, &poolRunner{job: job, workers: workers})
}

// poolRunner is Local's taskRunner: up to workers goroutines, each
// running the task body on the *Job the executor was handed — its
// closures, never a lookup by name, so a caller may run a
// wrapped copy of a job.
type poolRunner struct {
	job     *Job
	workers int
}

func (r *poolRunner) run(ctx context.Context, tasks []taskMsg, sink func(*resultMsg) error) error {
	err := forEachBounded(r.workers, len(tasks), func(i int) error {
		res := executeTask(ctx, r.job, &tasks[i])
		if res.err != nil {
			return res.err
		}
		if err := sink(&res); err != nil {
			return fmt.Errorf("task %d result: %w", res.Seq, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mapreduce: %w", err)
	}
	return nil
}
