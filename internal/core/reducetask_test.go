package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/offheap"
)

// openSpy is a bucketOpener whose openBucket records, per call, where the
// rows buffer starts, how long it is and what is mapped at that moment;
// fail makes the call with that number (from 1) fail after the buffer
// was handed over, and hook runs at each call.
type openSpy struct {
	*rowSource
	starts []*float64
	lens   []int
	inUse  []int64
	fail   int
	hook   func()
}

var errSpyOpen = errors.New("spy refuses the bucket")

func (s *openSpy) openBucket(value []byte, rows []float64) (bucket, error) {
	s.starts = append(s.starts, &rows[:1][0])
	s.lens = append(s.lens, len(rows))
	s.inUse = append(s.inUse, offheap.InUse())
	if s.hook != nil {
		s.hook()
	}
	if len(s.starts) == s.fail {
		return bucket{}, errSpyOpen
	}
	return s.rowSource.openBucket(value, rows)
}

// taskFixture is one stage-2 reduce task's input over a 1 600 × 8
// mixture at K = 8: buckets of 300 and 500 points (solved) and of 120
// and 1 (one cluster each, so trivial), in key order, each as its 'B'
// record, with the solver, the largest solved bucket's rows and scratch
// in floats, and each bucket's in-process solution by key.
type taskFixture struct {
	solver          *bucketSolver
	groups          []mapreduce.Group
	rows, scratch   int
	want            map[string]bucketSolution
	trivial, solved int
}

func newTaskFixture(t *testing.T) *taskFixture {
	t.Helper()
	l := mixture(t, 1600, 8, 8, 0.03, 11)
	solver, err := newBucketSolver(solvePolicy{N: 1600, Cols: 8, K: 8, Sigma: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := &taskFixture{solver: solver, want: map[string]bucketSolution{}}
	start := 0
	for bi, n := range []int{300, 120, 500, 1} {
		ids := rowSpan(start, n)
		start += n
		rows := make([]float64, 0, n*8)
		for _, i := range ids {
			rows = append(rows, l.Points.Row(i)...)
		}
		key := fmt.Sprintf("%016x", bi)
		f.groups = append(f.groups, mapreduce.Group{Key: key, Values: [][]byte{bucketRecord(ids, 8, rows)}})
		var scratch []float64
		sol, err := solver.solve(bucket{points: l.Points, rows: ids, ids: ids}, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		sol.SolveNanos = 0
		f.want[key] = sol
		if pl := solver.plan(n); pl.Class == classTrivial {
			f.trivial++
		} else {
			f.solved++
			f.rows, f.scratch = max(f.rows, n*8), max(f.scratch, pl.scratchLen(n))
		}
	}
	if f.trivial != 2 || f.solved != 2 {
		t.Fatalf("fixture has %d trivial and %d solved buckets, want 2 and 2", f.trivial, f.solved)
	}
	return f
}

// run runs solveTask over the fixture's groups and checks each bucket's
// result against its in-process solve, emitted once under its own key.
func (f *taskFixture) run(t *testing.T, ctx context.Context, src bucketOpener) error {
	t.Helper()
	got := map[string]bucketSolution{}
	err := solveTask(ctx, src, f.solver, f.groups, func(key string, value []byte) {
		var sol bucketSolution
		if err := decodeBucketResult(value, &sol); err != nil {
			t.Fatalf("bucket %s: %v", key, err)
		}
		if _, dup := got[key]; dup {
			t.Fatalf("bucket %s emitted twice", key)
		}
		sol.SolveNanos = 0
		got[key] = sol
	})
	if err == nil && !reflect.DeepEqual(got, f.want) {
		t.Fatalf("task results differ from the in-process solves:\n got %+v\nwant %+v", got, f.want)
	}
	return err
}

// TestClusterTaskOffheapMapsOncePerTask: a stage-2 reduce task maps its
// buckets' rows and their solve scratch once each, before the first
// solve, at the largest bucket's plan — every open sees the same rows
// buffer and the same bytes mapped — opens the largest bucket first and
// never opens a trivial one. Each bucket's result is its in-process
// solve, and nothing stays mapped.
func TestClusterTaskOffheapMapsOncePerTask(t *testing.T) {
	f := newTaskFixture(t)
	base := offheap.InUse()
	spy := &openSpy{rowSource: &rowSource{}}
	if err := f.run(t, bg, spy); err != nil {
		t.Fatal(err)
	}
	if len(spy.starts) != f.solved {
		t.Fatalf("%d buckets opened, want the %d solved ones", len(spy.starts), f.solved)
	}
	for i := range spy.starts {
		if spy.starts[i] != spy.starts[0] || spy.lens[i] < f.rows {
			t.Fatalf("open %d got a %d-float buffer, not the task's one of %d", i, spy.lens[i], f.rows)
		}
		if want := base + 8*int64(f.rows+f.scratch); offheap.Mapped && spy.inUse[i] != want {
			t.Fatalf("%d B mapped at open %d, want %d: the largest bucket's rows and scratch", spy.inUse[i]-base, i, want-base)
		}
	}
	if got := offheap.InUse(); got != base {
		t.Fatalf("%d B still mapped after the task", got-base)
	}
}

// TestClusterTaskOffheapTrivialReadsNothing: a stage-2 value whose
// bucket is trivial is solved from its index list's count alone — no
// shard read, no rows mapped — on the shard-backed source.
func TestClusterTaskOffheapTrivialReadsNothing(t *testing.T) {
	l := mixture(t, 400, 4, 4, 0.03, 9)
	src, err := openShardRows(writeShardDir(t, l.Points, 128))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := newBucketSolver(solvePolicy{N: 400, Cols: 4, K: 4, Sigma: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{3, 50, 51, 200, 399} // K share 1: trivial
	if pl := solver.plan(len(ids)); pl.Class != classTrivial {
		t.Fatalf("a %d-point bucket plans %v, want trivial", len(ids), pl.Class)
	}
	before := src.io()
	offheap.ResetPeak()
	base := offheap.InUse()
	var results int
	err = solveTask(bg, src, solver, []mapreduce.Group{{Key: "k", Values: [][]byte{encodeIndices(ids)}}},
		func(string, []byte) { results++ })
	if err != nil || results != 1 {
		t.Fatalf("trivial task: %d results, %v", results, err)
	}
	if got := src.io(); got != before {
		t.Fatalf("a trivial bucket read the shards: %+v → %+v", before, got)
	}
	if peak := offheap.ResetPeak(); peak != base {
		t.Fatalf("a trivial bucket mapped %d B", peak-base)
	}
}

// TestClusterTaskOffheapFreedOnFailureAndCancel: a task whose bucket
// fails to open, or whose context is cancelled in the middle of a
// bucket, returns that error — the cancelled one before it opens
// another — with nothing left mapped.
func TestClusterTaskOffheapFreedOnFailureAndCancel(t *testing.T) {
	f := newTaskFixture(t)
	base := offheap.InUse()
	spy := &openSpy{rowSource: &rowSource{}, fail: 2}
	if err := f.run(t, bg, spy); !errors.Is(err, errSpyOpen) {
		t.Fatalf("err = %v, want the failed open's", err)
	}
	if got := offheap.InUse(); got != base {
		t.Fatalf("%d B still mapped after a failed task", got-base)
	}
	ctx, cancel := context.WithCancel(bg)
	spy = &openSpy{rowSource: &rowSource{}, hook: cancel}
	err := f.run(t, ctx, spy)
	cancel()
	if !errors.Is(err, context.Canceled) || len(spy.starts) != 1 {
		t.Fatalf("err = %v after %d opens, want the cancellation after one", err, len(spy.starts))
	}
	if got := offheap.InUse(); got != base {
		t.Fatalf("%d B still mapped after a cancelled task", got-base)
	}
}
