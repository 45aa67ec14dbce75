package shard

import (
	"errors"
	"math/rand"
	"testing"
)

// TestReadRowsIntoMatchesReadRow drives the coalescing gather with
// unsorted, duplicated, and cross-shard index sets: every destination
// row must match the single-row read path exactly.
func TestReadRowsIntoMatchesReadRow(t *testing.T) {
	dir := t.TempDir()
	m := writeMatrix(t, dir, 50, 6, 7) // 8 shards, awkward boundaries
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()

	rng := rand.New(rand.NewSource(41))
	cases := [][]int{
		{0},
		{49, 0},
		{7, 7, 7},                     // duplicates share one read
		{6, 7, 8, 13, 14, 20, 21, 22}, // runs crossing shard boundaries
		nil,
	}
	perm := rng.Perm(50)
	cases = append(cases, perm, perm[:25])
	for ci, idx := range cases {
		got := make([][]float64, len(idx))
		err := r.ReadRowsInto(idx, func(pos int) []float64 {
			got[pos] = make([]float64, 6)
			return got[pos]
		})
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for k, i := range idx {
			for j := range got[k] {
				if got[k][j] != m[i][j] {
					t.Fatalf("case %d: row %d col %d: got %v want %v", ci, i, j, got[k][j], m[i][j])
				}
			}
		}
	}

	for _, bad := range [][]int{{-1}, {50}, {0, 50}} {
		if err := r.ReadRowsInto(bad, func(int) []float64 { return make([]float64, 6) }); err == nil {
			t.Fatalf("out-of-range gather %v succeeded", bad)
		}
	}
}

// TestGatherCoalescesAdjacentRows pins the perf mechanism itself: a
// contiguous index set must land in far fewer ReadAt calls than rows,
// and the coalesced-read counter must see it.
func TestGatherCoalescesAdjacentRows(t *testing.T) {
	dir := t.TempDir()
	writeMatrix(t, dir, 256, 8, 64)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()

	idx := make([]int, 128)
	for i := range idx {
		idx[i] = 64 + i // two full shards, perfectly contiguous
	}
	opsBefore, coalBefore := r.ReadOps(), r.CoalescedReads()
	if _, err := r.ReadRows(idx); err != nil {
		t.Fatal(err)
	}
	ops := r.ReadOps() - opsBefore
	coal := r.CoalescedReads() - coalBefore
	if ops >= int64(len(idx)) {
		t.Fatalf("contiguous gather used %d reads for %d rows — no coalescing", ops, len(idx))
	}
	if coal == 0 {
		t.Fatal("coalesced-read counter did not move")
	}
	if ops > 4 {
		t.Fatalf("contiguous gather of 2 shards took %d reads, want ≤ 4", ops)
	}

	// A maximally scattered gather (every other shard, one row each)
	// cannot coalesce: reads ≈ rows.
	scattered := []int{0, 128, 64, 192}
	opsBefore = r.ReadOps()
	if _, err := r.ReadRows(scattered); err != nil {
		t.Fatal(err)
	}
	if got := r.ReadOps() - opsBefore; got != int64(len(scattered)) {
		t.Fatalf("scattered gather used %d reads for %d isolated rows", got, len(scattered))
	}
}

// TestStreamReadaheadMatchesAndStops checks the double-buffered stream
// against the row reads and makes sure a callback error stops the
// readahead goroutine cleanly (no deadlock, error surfaced).
func TestStreamReadaheadMatchesAndStops(t *testing.T) {
	dir := t.TempDir()
	m := writeMatrix(t, dir, 300, 5, 32) // enough rows for several readahead blocks
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()

	var n int
	err = r.Stream(0, 300, func(i int, row []float64) error {
		if i != n {
			t.Fatalf("stream visited %d, want %d", i, n)
		}
		for j, v := range row {
			if v != m[i][j] {
				t.Fatalf("stream row %d col %d mismatch", i, j)
			}
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("visited %d rows", n)
	}

	boom := errors.New("stop early")
	var seen int
	err = r.Stream(0, 300, func(i int, row []float64) error {
		seen++
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("early-stop error = %v", err)
	}
	if seen != 11 {
		t.Fatalf("callback ran %d times after error at row 10", seen)
	}

	// The reader must remain usable after an aborted stream.
	if _, err := r.ReadRow(42, nil); err != nil {
		t.Fatalf("read after aborted stream: %v", err)
	}
}
