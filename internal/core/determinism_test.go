package core

import (
	"reflect"
	"testing"

	"repro/internal/spectral"
)

// TestResultDeterministicAcrossRunsAndWorkers pins the determinism
// contract the lint layer guards statically: repeated runs of the same
// configuration — at any GOMAXPROCS — must agree on labels, on the
// per-bucket report (including its order), and on the Solvers
// histogram. Bucket solves race over a shared work queue, so any
// map-order or float-accumulation leak in the assembly path shows up
// here as a flaky diff.
func TestResultDeterministicAcrossRunsAndWorkers(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.04, 11)
	cfg := Config{K: 4, Seed: 7, SparseCutoff: 24, Epsilon: 1e-4}

	run := func(procs int) *Result {
		t.Helper()
		setProcs(t, procs)
		res, err := Run(bg, Source{Points: l.Points}, cfg)
		if err != nil {
			t.Fatalf("Run(GOMAXPROCS=%d): %v", procs, err)
		}
		return res
	}

	base := run(1)
	if len(base.Solvers) == 0 {
		t.Fatal("baseline run populated no Solvers histogram")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			res := run(workers)
			if !reflect.DeepEqual(res.Labels, base.Labels) {
				t.Fatalf("workers=%d rep=%d: labels differ from baseline", workers, rep)
			}
			if !reflect.DeepEqual(res.Solvers, base.Solvers) {
				t.Fatalf("workers=%d rep=%d: Solvers histogram %v != baseline %v",
					workers, rep, res.Solvers, base.Solvers)
			}
			if len(res.Buckets) != len(base.Buckets) {
				t.Fatalf("workers=%d rep=%d: %d buckets, baseline %d",
					workers, rep, len(res.Buckets), len(base.Buckets))
			}
			for bi, b := range res.Buckets {
				want := base.Buckets[bi]
				// SolveNanos is wall time and legitimately varies; every
				// other field — including position bi — must be stable.
				b.SolveNanos, want.SolveNanos = 0, 0
				if b != want {
					t.Fatalf("workers=%d rep=%d: bucket %d = %+v, baseline %+v",
						workers, rep, bi, b, want)
				}
			}
		}
	}
}

// TestLabelsIdenticalAcrossProcsOnAllDrivers is the north star's
// "bit-identical labels on every driver" with GOMAXPROCS — since
// internal/par the only parallelism dial, and one whose helper count is
// timing-dependent — swept over 1, 2, 4 and 8 on every route of the
// driver grid. The mixture hashes to one embedded bucket of more than
// 4096 rows, so the bucket's k-means updates sixteen and more blocks
// in parallel: its centroid sums must take the block order, not the
// order goroutines finished in, or a label can flip between thread
// counts.
func TestLabelsIdenticalAcrossProcsOnAllDrivers(t *testing.T) {
	const n = 4600
	l := mixture(t, n, 8, 4, 0.08, 19)
	dir := writeShardDir(t, l.Points, 1024)
	drivers := driverGrid(l.Points, dir, 1<<20)
	// One bucket with K 4: at EmbedDim 14 its 4·K exceeds the width and
	// it takes the RFF solve, at 16 the landmark solve.
	for _, route := range []struct {
		dim    int
		solver string
	}{{14, spectral.SolverEmbedded}, {16, spectral.SolverLandmark}} {
		cfg := Config{K: 4, M: 1, Seed: 3, EmbedDim: route.dim, EmbedCutoff: 64, FitSample: n}
		var base *Result
		for _, procs := range []int{1, 2, 4, 8} {
			setProcs(t, procs)
			for _, d := range drivers {
				res, err := d.run(bg, cfg)
				if err != nil {
					t.Fatalf("%s at GOMAXPROCS=%d: %v", d.name, procs, err)
				}
				if base == nil {
					base = res
					big := false
					for _, b := range res.Buckets {
						big = big || (b.Solver == route.solver && b.Size >= 4096)
					}
					if !big {
						t.Fatalf("fixture has no %s bucket of >= 4096 rows: %+v", route.solver, res.Buckets)
					}
					continue
				}
				if !reflect.DeepEqual(res.Labels, base.Labels) {
					t.Fatalf("%s: %s at GOMAXPROCS=%d: labels differ from batch at 1", route.solver, d.name, procs)
				}
			}
		}
	}
}
