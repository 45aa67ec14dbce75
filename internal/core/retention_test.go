package core

import (
	"runtime"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/spectral"
)

// allocated returns the bytes f allocated.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestClusterRetainsSolveScratch: the in-process runner solves on
// lsh.EachBucket's pooled scratch, so once an in-process Run has grown
// it, the next call reuses it — two calls after a warm one allocate, at
// least once, less than one packed Gram of the largest bucket. The
// MapReduce reducers keep their per-invocation scratch (pooling there
// cost 15–20 %), so every shipped run allocates that Gram afresh.
func TestClusterRetainsSolveScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	setProcs(t, 1) // one solve goroutine, one pooled buffer
	l := mixture(t, 1600, 8, 3, 0.03, 5)
	cfg := Config{K: 3, Seed: 6, M: 2}
	for _, d := range []struct {
		name   string
		run    func() (*Result, error)
		pooled bool
	}{
		{"inproc", func() (*Result, error) { return Run(bg, Source{Points: l.Points}, cfg) }, true},
		{"shipped", func() (*Result, error) { return Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, cfg)) }, false},
	} {
		warm, err := d.run()
		if err != nil {
			t.Fatal(err)
		}
		largest := 0
		for _, b := range warm.Buckets {
			if b.Solver == spectral.SolverDenseLanczos || b.Solver == spectral.SolverDenseEigen {
				largest = max(largest, b.Size)
			}
		}
		packed := 8 * int64(matrix.PackedLen(largest))
		if packed < 1<<20 {
			t.Fatalf("%s: largest dense bucket %d rows is too small to tell the Gram from the rest", d.name, largest)
		}
		least := int64(-1)
		for i := 0; i < 2; i++ {
			a := allocated(func() {
				if _, err := d.run(); err != nil {
					t.Fatal(err)
				}
			})
			if least < 0 || a < least {
				least = a
			}
		}
		t.Logf("%s: largest dense bucket %d rows, packed Gram %d B, least allocated per call %d B", d.name, largest, packed, least)
		if d.pooled && least >= packed {
			t.Errorf("%s: a warm call allocated %d B, not below one packed Gram (%d B): the scratch was not reused", d.name, least, packed)
		}
		if !d.pooled && least < packed {
			t.Errorf("%s: a call allocated %d B, below one packed Gram (%d B): the reducer solve reused a buffer", d.name, least, packed)
		}
	}
}
