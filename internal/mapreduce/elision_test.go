package mapreduce_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/mapreduce/mrtest"
)

// sumReduce adds up its values. An empty value counts as zero — and
// must arrive as nil, on every path a record can take to a reducer or a
// combiner: that is the Executor empty-value rule.
func sumReduce(k string, vs [][]byte, emit mapreduce.Emit) error {
	total := 0
	for _, v := range vs {
		if len(v) == 0 {
			if v != nil {
				return fmt.Errorf("key %q: an empty value was delivered as %#v, not nil", k, v)
			}
			continue
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	emit(k, []byte(strconv.Itoa(total)))
	return nil
}

// wordLines is n lines over a small vocabulary: every key repeats
// across splits, so merge tie-breaks are exercised.
func wordLines(n int) []mapreduce.Pair {
	vocab := strings.Fields("the quick brown fox jumps over lazy dog and runs far away")
	input := make([]mapreduce.Pair, n)
	for i := range input {
		var sb strings.Builder
		for w := 0; w < 6+i%5; w++ {
			sb.WriteString(vocab[(i*7+w*3)%len(vocab)])
			sb.WriteByte(' ')
		}
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: []byte(sb.String())}
	}
	if n > 0 {
		input[n/2].Value = []byte{} // an empty line
	}
	return input
}

// tokenCounts is the stage-2 shape: n (word, count) records whose map
// phase has nothing left to do. Every 16th count is an empty value that
// is not nil.
func tokenCounts(n int) []mapreduce.Pair {
	input := make([]mapreduce.Pair, n)
	for i := range input {
		input[i] = mapreduce.Pair{Key: fmt.Sprintf("w%02d", (i*5)%17), Value: []byte(strconv.Itoa(1 + i%3))}
		if i%16 == 15 {
			input[i].Value = []byte{}
		}
	}
	return input
}

// TestElisionMatchesExecution is the contract of the two declarations on
// word-count-shaped jobs: a tokenizing map whose reduce only groups (with
// and without a combiner, whose per-split sums the elided reduce then
// forwards as they are), a summing reduce whose map only forwards (with
// and without a combiner, which must be handed a copy of the split it
// sorts in place), and a job that is identity on both sides, i.e. a
// distributed sort —
// fed nil and empty-but-non-nil values, which the frame codec does not
// tell apart. The two large inputs overflow the 64 KiB spill budget a
// few times; the small ones fit inside it.
func TestElisionMatchesExecution(t *testing.T) {
	tokenize := &mapreduce.Job{
		Name: "elide/tokenize", NumReducers: 3, SplitSize: 128,
		Map: func(k string, v []byte, emit mapreduce.Emit) error {
			if len(v) == 0 && v != nil {
				return fmt.Errorf("line %s: an empty value was delivered as %#v, not nil", k, v)
			}
			for _, w := range strings.Fields(string(v)) {
				emit(w, []byte("1"))
			}
			return nil
		},
		Reduce: mapreduce.IdentityReduceFunc, IdentityReduce: true,
	}
	tokenizeCombined := *tokenize
	tokenizeCombined.Name = "elide/tokenize-combined"
	tokenizeCombined.Combine = sumReduce
	sum := &mapreduce.Job{
		Name: "elide/sum", NumReducers: 3, SplitSize: 512,
		Map: mapreduce.IdentityMapFunc, IdentityMap: true,
		Reduce: sumReduce,
	}
	sumCombined := *sum
	sumCombined.Name = "elide/sum-combined"
	sumCombined.Combine = sumReduce
	sortOnly := &mapreduce.Job{
		Name: "elide/sort", NumReducers: 2, SplitSize: 7,
		Map: mapreduce.IdentityMapFunc, IdentityMap: true,
		Reduce: mapreduce.IdentityReduceFunc, IdentityReduce: true,
	}
	sortInput := append(tokenCounts(60),
		mapreduce.Pair{Key: "w03", Value: nil},
		mapreduce.Pair{Key: "w03", Value: []byte{}},
		mapreduce.Pair{Key: "", Value: []byte("empty key")})

	for _, c := range []struct {
		job   *mapreduce.Job
		input []mapreduce.Pair
	}{
		{tokenize, wordLines(3000)},
		{&tokenizeCombined, wordLines(600)},
		{sum, tokenCounts(30000)},
		{&sumCombined, tokenCounts(2000)},
		{sortOnly, sortInput},
		{sortOnly, nil},
	} {
		mapreduce.Register(c.job)
		before := append([]mapreduce.Pair(nil), c.input...)
		if err := mrtest.CheckElision(c.job, c.input, nil); err != nil {
			t.Error(err)
		}
		for i := range before {
			if before[i].Key != c.input[i].Key {
				t.Errorf("%s: the executor reordered its caller's input", c.job.Name)
				break
			}
		}
	}
}

// TestElisionCatchesFalseDeclaration documents what a declaration
// promises by breaking the promise: a job that declares a phase an
// identity while its closure is not gets different output elided than
// executed, and the harness says so.
func TestElisionCatchesFalseDeclaration(t *testing.T) {
	falseReduce := &mapreduce.Job{
		Name: "elide/false-reduce", NumReducers: 2, SplitSize: 16,
		Map:    mapreduce.IdentityMapFunc,
		Reduce: sumReduce, IdentityReduce: true, // not an identity: it folds the group
	}
	falseMap := &mapreduce.Job{
		Name: "elide/false-map", NumReducers: 2, SplitSize: 16,
		Map: func(k string, v []byte, emit mapreduce.Emit) error {
			emit(strings.ToUpper(k), v) // not an identity: it rewrites the key
			return nil
		},
		IdentityMap: true,
		Reduce:      sumReduce,
	}
	for _, job := range []*mapreduce.Job{falseReduce, falseMap} {
		mapreduce.Register(job)
		err := mrtest.CheckElision(job, tokenCounts(200), nil)
		if err == nil || !strings.Contains(err.Error(), "changed the output") {
			t.Errorf("%s: CheckElision = %v, want a changed-output report", job.Name, err)
		}
	}
	undeclared := &mapreduce.Job{Name: "elide/undeclared", Map: mapreduce.IdentityMapFunc, Reduce: mapreduce.IdentityReduceFunc}
	if err := mrtest.CheckElision(undeclared, nil, nil); err == nil {
		t.Error("a job with no declaration has nothing to check and must be refused")
	}
}

// TestElidedMapCancel cancels while the executor itself is partitioning
// an elided map phase's splits (the partitioner is the only user code an
// elided map runs, so it is the hook): RunContext must return the
// context's error without working through the remaining splits, and a
// cancelled TCP master ends up closed like any other.
func TestElidedMapCancel(t *testing.T) {
	const records = 64
	for _, name := range []string{"local", "tcp"} {
		t.Run(name, func(t *testing.T) {
			started := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			var partitioned atomic.Int64
			job := &mapreduce.Job{
				Name: "elide/cancel-" + name, SplitSize: 1, NumReducers: 2,
				Map: mapreduce.IdentityMapFunc, IdentityMap: true,
				Reduce: sumReduce,
				Partition: func(key string, n int) int {
					partitioned.Add(1)
					once.Do(func() { close(started) })
					<-release
					return mapreduce.DefaultPartition(key, n)
				},
			}
			mapreduce.Register(job)

			var exec mapreduce.ContextExecutor = &mapreduce.Local{Workers: 1}
			var master *mapreduce.Master
			if name == "tcp" {
				var err error
				if master, err = mapreduce.NewMaster("127.0.0.1:0", 1); err != nil {
					t.Fatal(err)
				}
				defer func() { _ = master.Close() }()
				workerDone := make(chan error, 1)
				go func() { workerDone <- mapreduce.RunWorker(master.Addr()) }()
				defer func() {
					select {
					case <-workerDone:
					case <-time.After(5 * time.Second):
						t.Error("worker did not exit after the cancelled master closed")
					}
				}()
				exec = master
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runErr := make(chan error, 1)
			go func() {
				_, _, err := exec.RunContext(ctx, job, tokenCounts(records))
				runErr <- err
			}()
			<-started
			cancel()
			close(release)
			select {
			case err := <-runErr:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("RunContext = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunContext did not return after cancel")
			}
			if n := partitioned.Load(); n >= records {
				t.Errorf("partitioned %d of %d records after the cancel", n, records)
			}
			if master != nil {
				if _, _, err := master.Run(job, nil); err == nil || !strings.Contains(err.Error(), "master closed") {
					t.Errorf("Run after cancel = %v, want master closed", err)
				}
			}
		})
	}
}
