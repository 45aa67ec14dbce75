package lsh

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/offheap"
)

// TestEachBucketOwnsScratch: every solve gets at least need(bi) floats
// of scratch; in descending order one goroutine maps once, at the head
// bucket's size; and every loop — finished, failed or cancelled — has
// freed what it mapped by the time it returns, including when a solve
// replaced the buffer with a larger heap slice.
func TestEachBucketOwnsScratch(t *testing.T) {
	sizes := []int{5000, 4000, 0, 3000, 10, 1}
	order := []int{0, 1, 2, 3, 4, 5}
	need := func(bi int) int { return sizes[bi] }
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		offheap.ResetPeak()
		var solved atomic.Int64
		err := EachBucket(context.Background(), order, need, func(bi int, scratch *[]float64) error {
			if len(*scratch) < sizes[bi] {
				t.Errorf("procs %d: bucket %d needs %d floats, got %d", procs, bi, sizes[bi], len(*scratch))
			}
			for i := range (*scratch)[:sizes[bi]] {
				(*scratch)[i] = float64(bi)
			}
			solved.Add(1)
			return nil
		})
		if err != nil || solved.Load() != int64(len(order)) {
			t.Fatalf("procs %d: %d of %d solved, err %v", procs, solved.Load(), len(order), err)
		}
		if got := offheap.InUse(); got != 0 {
			t.Errorf("procs %d: %d B still mapped after the loop", procs, got)
		}
		if procs == 1 && offheap.Mapped {
			if got, want := offheap.ResetPeak(), 8*int64(sizes[0]); got != want {
				t.Errorf("one goroutine mapped %d B at most, want the head bucket's %d", got, want)
			}
		}
	}

	setProcs(t, 1)
	boom := errors.New("boom")
	err := EachBucket(context.Background(), order, need, func(bi int, scratch *[]float64) error {
		*scratch = make([]float64, 2*sizes[0]) // a need that was too small grows on the heap
		if bi == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want the solve's", err)
	}
	if got := offheap.InUse(); got != 0 {
		t.Errorf("%d B still mapped after a failed loop whose solves regrew the scratch", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	err = EachBucket(ctx, order, need, func(bi int, _ *[]float64) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want the cancellation", err)
	}
	if got := offheap.InUse(); got != 0 {
		t.Errorf("%d B still mapped after a cancelled loop", got)
	}
}
