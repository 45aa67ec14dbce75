package mapreduce

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestReduceTaskMatchesReduce: a job whose ReduceTask takes each task's
// groups in reverse key order puts out exactly what its Reduce does one
// group at a time, with repeated keys, with and without an Expand behind
// the identity map: on TCP, where a worker holds every group of its
// task, through ReduceTask once per task; on Local, where the groups
// stream out of the merge, through Reduce alone.
func TestReduceTaskMatchesReduce(t *testing.T) {
	refs, expanded := repeatRefs(23)
	for i := range refs { // every key twice or more
		refs[i].Key = fmt.Sprint(i % 7)
		expanded[i].Key = refs[i].Key
	}
	m, stop := startCluster(t, 2)
	defer stop()
	for _, job := range expandJobs("reduce-task") {
		if job.IdentityReduce || !job.IdentityMap {
			continue
		}
		want, _, err := (&Local{}).Run(job, expanded)
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		tjob := *job
		tjob.ReduceTask = func(ctx context.Context, groups []Group, emit Emit) error {
			calls.Add(1)
			for i := len(groups) - 1; i >= 0; i-- {
				if err := job.Reduce(groups[i].Key, groups[i].Values, emit); err != nil {
					return err
				}
			}
			return nil
		}
		Register(&tjob)
		for _, expand := range []bool{false, true} {
			xjob, input := tjob, expanded
			if expand {
				xjob.Expand, input = repeatExpander{}, refs
			}
			for _, c := range []struct {
				name  string
				exec  Executor
				calls int64
			}{{"local", &Local{}, 0}, {"tcp", m, int64(xjob.numReducers())}} {
				calls.Store(0)
				got, _, err := c.exec.Run(&xjob, input)
				if err != nil {
					t.Fatalf("%s expand=%v: %v", c.name, expand, err)
				}
				if !pairsEqual(got, want) {
					t.Fatalf("%s expand=%v:\n got %v\nwant %v", c.name, expand, got, want)
				}
				if calls.Load() != c.calls {
					t.Fatalf("%s expand=%v: ReduceTask ran %d times, want %d", c.name, expand, calls.Load(), c.calls)
				}
			}
		}
	}
	stop()
	checkNothingMapped(t)
}
