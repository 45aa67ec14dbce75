package core

import "testing"

// The golden labelings below were captured from the pre-ensemble
// pipeline (commit ddfed36, single-signature bucketing) with the exact
// dataset and configuration of the cross-driver and determinism tests.
// The multi-table refactor's contract is that the degenerate dial —
// Tables=1, ProbeRadius=0, i.e. the zero Config — reproduces them
// byte-identically, so these tests pin the refactor against silent
// label drift. Both corpora happen to label in clean 60-point blocks,
// which blocks60 spells out.
func blocks60(vals ...int) []int {
	out := make([]int, 0, 60*len(vals))
	for _, v := range vals {
		for i := 0; i < 60; i++ {
			out = append(out, v)
		}
	}
	return out
}

// TestGoldenLabelsDegenerateDial pins the degenerate ensemble against
// the pre-refactor labels on every route of the driver grid: corpus A
// (the cross-driver dataset) must reproduce goldenA everywhere, and
// corpus B (the sparse-engine determinism dataset) must reproduce
// goldenB.
func TestGoldenLabelsDegenerateDial(t *testing.T) {
	goldenA := blocks60(3, 1, 0, 2)
	goldenB := blocks60(0, 1, 2, 3)

	check := func(name string, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d labels, golden has %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: label[%d] = %d, golden %d", name, i, got[i], want[i])
			}
		}
	}

	a := mixture(t, 240, 12, 4, 0.03, 40)
	cfgA := Config{K: 4, Seed: 41}
	batch, err := Run(bg, Source{Points: a.Points}, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	check("batch", batch.Labels, goldenA)
	// The captured run produced 4 clusters over 2 merged buckets with a
	// 144000-byte Gram at M=3; pin the accounting too so bucket-merge
	// changes cannot hide behind a coincidentally equal labeling.
	if batch.Clusters != 4 || batch.GramBytes != 144000 || len(batch.Buckets) != 2 || batch.SignatureBits != 3 {
		t.Errorf("batch bookkeeping: clusters=%d gram=%d buckets=%d M=%d, golden 4/144000/2/3",
			batch.Clusters, batch.GramBytes, len(batch.Buckets), batch.SignatureBits)
	}

	for _, c := range driverGrid(a.Points, writeShardDir(t, a.Points, 64), batch.GramBytes) {
		res, err := c.run(bg, cfgA)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name, res.Labels, goldenA)
	}

	b := mixture(t, 240, 12, 4, 0.04, 11)
	res, err := Run(bg, Source{Points: b.Points}, Config{K: 4, Seed: 7, SparseCutoff: 24, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	check("sparse-engine", res.Labels, goldenB)
	if res.Clusters != 4 || res.GramBytes != 86400 {
		t.Errorf("sparse-engine bookkeeping: clusters=%d gram=%d, golden 4/86400", res.Clusters, res.GramBytes)
	}
}

// TestAllDriversEnsembleIdenticalLabels extends the cross-driver
// identity guarantee to a non-degenerate dial: with two tables and one
// probe flip, every route of the driver grid must still agree exactly —
// the ensemble merge runs on the driver, so backend choice cannot change
// the partition.
func TestAllDriversEnsembleIdenticalLabels(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	cfg := Config{K: 4, Seed: 41, Tables: 2, ProbeRadius: 1}

	batch, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range driverGrid(l.Points, writeShardDir(t, l.Points, 64), batch.GramBytes) {
		res, err := c.run(bg, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		agreesWithBatch(t, c.name, res, batch)
	}
}

// TestEnsembleResultDeterministic repeats the determinism pin at a
// non-degenerate dial: same seed, any GOMAXPROCS, identical labels
// and bucket reports.
func TestEnsembleResultDeterministic(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.04, 11)
	cfg := Config{K: 4, Seed: 7, Tables: 4, ProbeRadius: 1, SparseCutoff: 24, Epsilon: 1e-4}

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
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			res := run(workers)
			for i := range base.Labels {
				if res.Labels[i] != base.Labels[i] {
					t.Fatalf("workers=%d rep=%d: label[%d] = %d, baseline %d",
						workers, rep, i, res.Labels[i], base.Labels[i])
				}
			}
			if len(res.Buckets) != len(base.Buckets) {
				t.Fatalf("workers=%d rep=%d: %d buckets, baseline %d",
					workers, rep, len(res.Buckets), len(base.Buckets))
			}
			for bi, b := range res.Buckets {
				want := base.Buckets[bi]
				b.SolveNanos, want.SolveNanos = 0, 0
				if b != want {
					t.Fatalf("workers=%d rep=%d: bucket %d = %+v, baseline %+v",
						workers, rep, bi, b, want)
				}
			}
		}
	}
}
