// Package mrtest holds the test harness shared by the packages that
// build MapReduce jobs: it pins what mapreduce.Job.IdentityMap and
// IdentityReduce promise, against every executor and data-plane setting
// at once.
package mrtest

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/mapreduce"
)

// workers is the size of the TCP cluster CheckElision starts.
const workers = 2

// spillBudgets are the Job.SpillBytes settings CheckElision covers: the
// in-memory shuffle, a budget every run overflows, and one only large
// runs do.
var spillBudgets = []int64{0, 1, 64 << 10}

// CheckElision runs job twice per configuration — once as given, with
// its IdentityMap / IdentityReduce declarations honoured, and once with
// both cleared so the Map and Reduce closures execute — on the Local
// executor and on a TCP master with two in-process socket workers, at
// SpillBytes 0, 1 and 64 KiB with Compress off and on, and returns an
// error naming the first configuration whose two outputs are not
// reflect.DeepEqual. A declaration that matches its closure can never
// be told apart this way; one that does not is what the error reports.
// The TCP outputs must also equal the Local ones, nil values and empty
// ones told apart: that is the Executor empty-value rule. So must the
// counters that do not depend on where tasks run — the record counts, and
// the task counts, which are zero for exactly the declared phases and
// otherwise the executed run's: both executors are one engine.
//
// The job must be runnable over TCP (registered by name, or built by a
// registered factory from its Conf). canon, when non-nil, rewrites an
// output in place before it is compared, for jobs whose records carry a
// measurement (a wall time) next to their result.
func CheckElision(job *mapreduce.Job, input []mapreduce.Pair, canon func([]mapreduce.Pair)) error {
	if !job.IdentityMap && !job.IdentityReduce {
		return fmt.Errorf("mrtest: job %q declares no identity phase", job.Name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	master, err := mapreduce.NewMaster("127.0.0.1:0", workers)
	if err != nil {
		cancel()
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = mapreduce.RunWorkerContext(ctx, master.Addr()) // ends with the master, or with ctx
		}()
	}
	defer func() {
		_ = master.Close() // workers return on the resulting EOF
		wg.Wait()
		cancel()
	}()
	for deadline := time.Now().Add(10 * time.Second); master.ConnectedWorkers() < workers; {
		if time.Now().After(deadline) {
			return fmt.Errorf("mrtest: %d of %d workers joined", master.ConnectedWorkers(), workers)
		}
		time.Sleep(time.Millisecond)
	}

	executors := []struct {
		name string
		exec mapreduce.Executor
	}{{"local", &mapreduce.Local{Workers: 3}}, {"tcp", master}}
	type outcome struct {
		out      []mapreduce.Pair
		executed counts // the elided run's follow from it and the declarations
	}
	var reference []outcome // Local's, in loop order
	for ei, e := range executors {
		run := 0
		for _, spill := range spillBudgets {
			for _, compress := range []bool{false, true} {
				elided := *job
				elided.SpillBytes, elided.Compress = spill, compress
				executed := elided
				executed.IdentityMap, executed.IdentityReduce = false, false

				where := fmt.Sprintf("%s on %s, SpillBytes=%d, Compress=%v", job.Name, e.name, spill, compress)
				want, wantCtr, err := e.exec.Run(&executed, input)
				if err != nil {
					return fmt.Errorf("mrtest: %s, closures executed: %w", where, err)
				}
				got, gotCtr, err := e.exec.Run(&elided, input)
				if err != nil {
					return fmt.Errorf("mrtest: %s, declared phases elided: %w", where, err)
				}
				if canon != nil {
					canon(want)
					canon(got)
				}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("mrtest: %s: eliding the declared phases changed the output (%d pairs vs %d): %s",
						where, len(got), len(want), firstDifference(got, want))
				}
				o := outcome{got, independent(wantCtr)}
				declared := o.executed
				if job.IdentityMap {
					declared.mapTasks = 0
				}
				if job.IdentityReduce {
					declared.reduceTasks = 0
				}
				if elided := independent(gotCtr); elided != declared {
					return fmt.Errorf("mrtest: %s: counters are %+v with the declared phases elided, want %+v",
						where, elided, declared)
				}
				if ei == 0 {
					reference = append(reference, o)
				} else if ref := reference[run]; !reflect.DeepEqual(got, ref.out) {
					return fmt.Errorf("mrtest: %s: output differs from %s's (%d pairs vs %d): %s",
						where, executors[0].name, len(got), len(ref.out), firstDifference(got, ref.out))
				} else if o.executed != ref.executed {
					return fmt.Errorf("mrtest: %s: counters are %+v, %s's are %+v",
						where, o.executed, executors[0].name, ref.executed)
				}
				run++
			}
		}
	}
	return nil
}

// counts is the part of a run's Counters that may not depend on the
// executor.
type counts struct{ in, mapOutputs, out, mapTasks, reduceTasks int }

func independent(c *mapreduce.Counters) counts {
	return counts{c.InputRecords, c.MapOutputs, c.OutputRecords, c.MapTasks, c.ReduceTasks}
}

// firstDifference describes where two outputs first disagree.
func firstDifference(got, want []mapreduce.Pair) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("pair %d is %q=%#v, want %q=%#v", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	return "one output is a prefix of the other"
}
