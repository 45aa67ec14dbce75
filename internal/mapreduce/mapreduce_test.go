package mapreduce

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// wordCountJob returns the canonical MapReduce example, used as the
// reference workload for both executors.
func wordCountJob(name string, reducers int, combine bool) *Job {
	j := &Job{
		Name:        name,
		NumReducers: reducers,
		Map: func(key string, value []byte, emit Emit) error {
			for _, w := range strings.Fields(string(value)) {
				emit(w, []byte("1"))
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			emit(key, []byte(strconv.Itoa(total)))
			return nil
		},
	}
	if combine {
		j.Combine = j.Reduce
	}
	return j
}

func wordInput() []Pair {
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog jumps",
	}
	input := make([]Pair, len(lines))
	for i, l := range lines {
		input[i] = Pair{Key: strconv.Itoa(i), Value: []byte(l)}
	}
	return input
}

func checkWordCount(t *testing.T, out []Pair) {
	t.Helper()
	want := map[string]string{
		"the": "3", "quick": "2", "dog": "2", "brown": "1",
		"fox": "1", "lazy": "1", "jumps": "1",
	}
	if len(out) != len(want) {
		t.Fatalf("got %d keys, want %d: %v", len(out), len(want), out)
	}
	for _, p := range out {
		if want[p.Key] != string(p.Value) {
			t.Fatalf("count[%s] = %s, want %s", p.Key, p.Value, want[p.Key])
		}
	}
	// Output must be key-sorted.
	for i := 1; i < len(out); i++ {
		if out[i-1].Key > out[i].Key {
			t.Fatal("output not sorted")
		}
	}
}

func TestLocalWordCount(t *testing.T) {
	out, ctr, err := (&Local{}).Run(wordCountJob("wc", 3, false), wordInput())
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, out)
	if ctr.InputRecords != 3 || ctr.MapOutputs != 11 || ctr.ReduceTasks != 3 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestLocalCombinerReducesShuffle(t *testing.T) {
	in := wordInput()
	_, plain, err := (&Local{}).Run(wordCountJob("wc", 1, false), in)
	if err != nil {
		t.Fatal(err)
	}
	outC, combined, err := (&Local{Workers: 2}).Run(wordCountJob("wc", 1, true), in)
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, outC)
	// With SplitSize default all records land in one split, so the
	// combiner collapses duplicate words before the shuffle.
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d",
			combined.ShuffleBytes, plain.ShuffleBytes)
	}
}

func TestLocalSplitSizes(t *testing.T) {
	job := wordCountJob("wc", 2, false)
	job.SplitSize = 1
	out, ctr, err := (&Local{Workers: 4}).Run(job, wordInput())
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, out)
	if ctr.MapTasks != 3 {
		t.Fatalf("MapTasks = %d, want 3", ctr.MapTasks)
	}
}

func TestLocalValidation(t *testing.T) {
	if _, _, err := (&Local{}).Run(&Job{Name: "broken"}, nil); !errors.Is(err, ErrBadJob) {
		t.Fatalf("err = %v, want ErrBadJob", err)
	}
	bad := wordCountJob("wc", 1, false)
	bad.SplitSize = -1
	if _, _, err := (&Local{}).Run(bad, nil); !errors.Is(err, ErrBadJob) {
		t.Fatal("expected ErrBadJob for negative split size")
	}
}

func TestLocalEmptyInput(t *testing.T) {
	out, ctr, err := (&Local{}).Run(wordCountJob("wc", 2, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || ctr.MapTasks != 0 {
		t.Fatalf("out=%v ctr=%+v", out, ctr)
	}
}

func TestLocalMapErrorPropagates(t *testing.T) {
	job := &Job{
		Name: "failing",
		Map: func(key string, value []byte, emit Emit) error {
			return fmt.Errorf("boom on %s", key)
		},
		Reduce: func(key string, values [][]byte, emit Emit) error { return nil },
	}
	_, _, err := (&Local{}).Run(job, wordInput())
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalReduceErrorPropagates(t *testing.T) {
	job := wordCountJob("wc", 2, false)
	job.Reduce = func(key string, values [][]byte, emit Emit) error {
		return errors.New("reduce exploded")
	}
	_, _, err := (&Local{}).Run(job, wordInput())
	if err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestCustomPartitionOutOfRangeIsClamped(t *testing.T) {
	job := wordCountJob("wc", 2, false)
	job.Partition = func(key string, n int) int { return -7 }
	out, _, err := (&Local{}).Run(job, wordInput())
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, out)
}

func TestDefaultPartitionInRange(t *testing.T) {
	f := func(key string, n uint8) bool {
		reducers := int(n%16) + 1
		p := DefaultPartition(key, reducers)
		return p >= 0 && p < reducers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Local word count is invariant to worker count, reducer
// count and split size.
func TestPropLocalDeterministicAcrossConfig(t *testing.T) {
	base, _, err := (&Local{Workers: 1}).Run(wordCountJob("wc", 1, false), wordInput())
	if err != nil {
		t.Fatal(err)
	}
	f := func(workers, reducers, split uint8) bool {
		job := wordCountJob("wc", int(reducers%5)+1, workers%2 == 0)
		job.SplitSize = int(split%4) + 1
		out, _, err := (&Local{Workers: int(workers%8) + 1}).Run(job, wordInput())
		if err != nil {
			return false
		}
		if len(out) != len(base) {
			return false
		}
		for i := range out {
			if out[i].Key != base[i].Key || string(out[i].Value) != string(base[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
