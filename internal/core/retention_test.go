package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/offheap"
	"repro/internal/spectral"
)

// TestMain fails the suite if any bucket loop left scratch mapped: every
// lsh.EachBucket frees what it maps before it returns, so after the
// last Run nothing may be in use.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := offheap.InUse(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d bytes of solve scratch still mapped after the suite\n", n)
		code = 1
	}
	os.Exit(code)
}

// allocated returns the bytes f allocated.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestClusterRetainsSolveScratch: the in-process runner solves in
// scratch lsh.EachBucket maps outside the Go heap, and a MapReduce
// reduce task maps its buckets' rows and scratch for exactly the task, so
// a warm call of either allocates, at least once, less than one packed
// Gram of the largest bucket on the heap, and nothing stays mapped once
// Run returns.
func TestClusterRetainsSolveScratch(t *testing.T) {
	if !offheap.Mapped {
		t.Skip("solve scratch is heap memory in this build")
	}
	setProcs(t, 1) // one solve goroutine, one mapped buffer
	l := mixture(t, 1600, 8, 3, 0.03, 5)
	cfg := Config{K: 3, Seed: 6, M: 2}
	for _, d := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"inproc", func() (*Result, error) { return Run(bg, Source{Points: l.Points}, cfg) }},
		{"shipped", func() (*Result, error) { return Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, cfg)) }},
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
		if least >= packed {
			t.Errorf("%s: a warm call allocated %d B, not below one packed Gram (%d B): the solve scratch is on the heap", d.name, least, packed)
		}
		if offheap.InUse() != 0 {
			t.Errorf("%s: %d B of scratch still mapped after Run returned", d.name, offheap.InUse())
		}
	}
}

// TestBudgetedWavesMapOneWaveAtATime: a MemoryBudget run solves its
// waves one after another, and each wave's loop frees its scratch
// before the next maps any, so the most scratch mapped at once is the
// largest wave's — its planned bytes (PeakGramBytes) plus the packed
// triangle's 4·Ni per bucket — never the run's total, at one P and at
// four.
func TestBudgetedWavesMapOneWaveAtATime(t *testing.T) {
	if !offheap.Mapped {
		t.Skip("solve scratch is heap memory in this build")
	}
	l := mixture(t, 1200, 12, 6, 0.03, 42)
	cfg := Config{K: 6, Seed: 43, M: 6}
	n := int64(l.Points.Rows())
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		full, err := Run(bg, Source{Points: l.Points}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		offheap.ResetPeak()
		res, err := Run(bg, Source{Points: l.Points}, withBudget(full.GramBytes/4+1, cfg))
		if err != nil {
			t.Fatal(err)
		}
		mapped := offheap.ResetPeak()
		bound := res.PeakGramBytes + 4*n
		t.Logf("procs %d: %d waves, largest wave %d B planned, run total %d B, most mapped at once %d B",
			procs, res.Waves, res.PeakGramBytes, full.GramBytes, mapped)
		if res.Waves < 3 || bound >= full.GramBytes {
			t.Fatalf("procs %d: %d waves, largest %d B of %d B: the budget does not split the run", procs, res.Waves, res.PeakGramBytes, full.GramBytes)
		}
		if mapped == 0 || mapped > bound {
			t.Errorf("procs %d: %d B mapped at once, want (0, %d]: one wave's scratch", procs, mapped, bound)
		}
		if got := offheap.InUse(); got != 0 {
			t.Errorf("procs %d: %d B still mapped after Run returned", procs, got)
		}
	}
}
