package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/spectral"
)

// embedTestConfigs are the embedded-mode dials of the golden
// cross-driver corpus, one per route of the embed family: the 240-point
// mixture partitions into a 180-point bucket (claimed by the embed
// policy at cutoff 64, with a proportional k of 3) and a 60-point one
// (kept on the exact path — its proportional k is 1, trivial). At
// EmbedDim 10 the bucket's 4·3 exceeds the width and it takes the random
// Fourier feature solve; at 32 it takes the landmark solve.
func embedTestConfigs() []embedRoute {
	return []embedRoute{
		{spectral.SolverEmbedded, Config{K: 4, Seed: 41, EmbedDim: 10, EmbedCutoff: 64}},
		{spectral.SolverLandmark, Config{K: 4, Seed: 41, EmbedDim: 32, EmbedCutoff: 64}},
	}
}

// embedRoute is a configuration and the embed-family solver it puts the
// fixture's big bucket on.
type embedRoute struct {
	solver string
	cfg    Config
}

// TestEmbeddedAllDriversIdenticalLabels extends the cross-driver
// identity contract to embed mode: every route of the driver grid must
// produce bitwise identical labels and bucket reports, with the embedded
// (and, on its dial, the landmark) solver actually engaged — every one
// of them embedding where the bucket is solved.
func TestEmbeddedAllDriversIdenticalLabels(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	for _, route := range embedTestConfigs() {
		t.Run(route.solver, func(t *testing.T) {
			testEmbeddedAllDrivers(t, l, route.solver, route.cfg)
		})
	}
}

func testEmbeddedAllDrivers(t *testing.T, l *dataset.Labeled, solver string, cfg Config) {
	batch, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Solvers[solver] == 0 {
		t.Fatalf("%s solver never engaged: %v", solver, batch.Solvers)
	}
	if acc, err := metricsAccuracy(l.Labels, batch.Labels); err != nil || acc < 0.9 {
		t.Fatalf("%s accuracy = %v (%v)", solver, acc, err)
	}

	for _, c := range driverGrid(l.Points, writeShardDir(t, l.Points, 64), batch.GramBytes) {
		res, err := c.run(bg, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(res.Labels, batch.Labels) {
			t.Fatalf("%s labels differ from batch", c.name)
		}
		if !reflect.DeepEqual(res.Solvers, batch.Solvers) {
			t.Fatalf("%s Solvers = %v, batch %v", c.name, res.Solvers, batch.Solvers)
		}
		if res.GramBytes != batch.GramBytes {
			t.Fatalf("%s GramBytes = %d, batch %d", c.name, res.GramBytes, batch.GramBytes)
		}
		for bi, b := range res.Buckets {
			want := batch.Buckets[bi]
			b.SolveNanos, want.SolveNanos = 0, 0
			if b != want {
				t.Fatalf("%s bucket %d = %+v, batch %+v", c.name, bi, b, want)
			}
		}
		// Both MapReduce sources ship raw rows and embed in the reducer,
		// so neither meters a driver-side embed.
		if c.exec == nil && c.src.Dir == "" {
			continue
		}
		if mr := res.MapReduce; mr == nil || mr.EmbedBytes != 0 || mr.EmbedNanos != 0 {
			t.Fatalf("%s metered a driver-side embed: %+v", c.name, mr)
		}
	}
}

// TestEmbeddedShippedShipsRawRows pins that embedding never changes what
// travels: the shipped driver's stage-2 records (stage 2 is the one job
// it submits) are the buckets' raw rows whether or not the plan embeds
// them, so the stage-2 shuffle is the same to the byte with the embed on
// and off (at D = 48 > d′ = 6 or 8, where shipping embedded rows would
// have been smaller), and the embedded run still solves embedded — on
// the RFF route at d′ = 6, on the landmark route at 8 — and agrees with
// the in-process pool.
func TestEmbeddedShippedShipsRawRows(t *testing.T) {
	l := mixture(t, 240, 48, 4, 0.03, 40)
	stage2 := func(cfg Config) (*Result, int64) {
		t.Helper()
		var captured capturingExec
		res, err := Run(bg, Source{Points: l.Points}, onExec(&captured, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if names := captured.names(); !slices.Equal(names, []string{"dasc-cluster"}) {
			t.Fatalf("runner submitted %v, want stage 2 alone: stage 1 hashes in the driver", names)
		}
		return res, captured.stage("dasc-cluster").ShuffleBytes
	}
	_, rawBytes := stage2(Config{K: 4, Seed: 41})
	for _, route := range []struct {
		dim    int
		solver string
	}{{6, spectral.SolverEmbedded}, {8, spectral.SolverLandmark}} {
		cfg := Config{K: 4, Seed: 41, EmbedDim: route.dim, EmbedCutoff: 64}
		emb, embBytes := stage2(cfg)
		if embBytes != rawBytes || rawBytes == 0 {
			t.Fatalf("d′=%d: stage-2 shuffle is %d bytes with the embed on, %d with it off", route.dim, embBytes, rawBytes)
		}
		if emb.Solvers[route.solver] == 0 {
			t.Fatalf("d′=%d: %s solver never engaged: %v", route.dim, route.solver, emb.Solvers)
		}
		want, err := Run(bg, Source{Points: l.Points}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(emb.Labels, want.Labels) {
			t.Fatalf("d′=%d: shipped embedded labels differ from Cluster's", route.dim)
		}
	}
}

// TestEmbeddedDeterministicAcrossWorkers repeats the GOMAXPROCS
// determinism pin in embed mode: the embedded transform and k-means run
// inside the racing bucket pool, so any order dependence in the
// embedding path shows up here (and under -race in CI).
func TestEmbeddedDeterministicAcrossWorkers(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	for _, route := range embedTestConfigs() {
		run := func(procs int) *Result {
			t.Helper()
			setProcs(t, procs)
			res, err := Run(bg, Source{Points: l.Points}, route.cfg)
			if err != nil {
				t.Fatalf("%s: Run(GOMAXPROCS=%d): %v", route.solver, procs, err)
			}
			return res
		}

		base := run(1)
		if base.Solvers[route.solver] == 0 {
			t.Fatalf("%s solver never engaged: %v", route.solver, base.Solvers)
		}
		for _, workers := range []int{2, 4, 8} {
			for rep := 0; rep < 2; rep++ {
				res := run(workers)
				if !reflect.DeepEqual(res.Labels, base.Labels) {
					t.Fatalf("%s: workers=%d rep=%d: labels differ", route.solver, workers, rep)
				}
				for bi, b := range res.Buckets {
					want := base.Buckets[bi]
					b.SolveNanos, want.SolveNanos = 0, 0
					if b != want {
						t.Fatalf("%s: workers=%d rep=%d: bucket %d = %+v, baseline %+v",
							route.solver, workers, rep, bi, b, want)
					}
				}
			}
		}
	}
}

// TestEmbedConfigValidation covers the resolve-layer checks of the
// embed dial.
func TestEmbedConfigValidation(t *testing.T) {
	l := mixture(t, 60, 6, 2, 0.05, 3)
	for name, cfg := range map[string]Config{
		"negative dim":    {K: 2, EmbedDim: -2},
		"odd dim":         {K: 2, EmbedDim: 7},
		"negative cutoff": {K: 2, EmbedDim: 8, EmbedCutoff: -1},
	} {
		if _, err := Run(bg, Source{Points: l.Points}, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Zero cutoff with a positive dim resolves to the default.
	res, err := Run(bg, Source{Points: l.Points}, Config{K: 2, Seed: 1, EmbedDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 60 {
		t.Fatalf("labels = %d", len(res.Labels))
	}
}
