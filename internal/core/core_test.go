package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
)

// bg is the context of every run a test does not cancel.
var bg = context.Background()

// onExec is cfg with its tasks run on exec.
func onExec(exec mapreduce.Executor, cfg Config) Config {
	cfg.Executor = exec
	return cfg
}

// loopbackCluster is a TCP master with n in-process workers, all
// joined. Cleanup closes the master and waits for the workers to see
// the EOF and return.
func loopbackCluster(t testing.TB, n int) *mapreduce.Master {
	t.Helper()
	m, err := mapreduce.NewMaster("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = m.Close()
		wg.Wait()
	})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mapreduce.RunWorker(m.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	waitWorkers(t, m, n)
	return m
}

// withBudget is cfg with the in-process pool's waves bounded by budget.
func withBudget(budget int64, cfg Config) Config {
	cfg.MemoryBudget = budget
	return cfg
}

// metricsAccuracy keeps call sites short.
func metricsAccuracy(truth, pred []int) (float64, error) {
	return metrics.Accuracy(truth, pred)
}

// setProcs sets GOMAXPROCS — the only parallelism dial since
// internal/par — for the rest of the test, restored on cleanup.
func setProcs(t testing.TB, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func mixture(t *testing.T, n, d, k int, noise float64, seed int64) *dataset.Labeled {
	t.Helper()
	l, err := dataset.Mixture(dataset.MixtureConfig{N: n, D: d, K: k, Noise: noise, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestClusterRecoversBlobs(t *testing.T) {
	l := mixture(t, 200, 16, 4, 0.02, 1)
	res, err := Run(bg, Source{Points: l.Points}, Config{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("DASC accuracy = %v, want >= 0.9", acc)
	}
	if res.GramBytes >= 4*200*200 {
		t.Fatalf("approximated Gram %d not smaller than full %d", res.GramBytes, 4*200*200)
	}
	if res.SignatureBits == 0 || len(res.Buckets) == 0 {
		t.Fatalf("missing run metadata: %+v", res)
	}
}

func TestClusterLabelInvariants(t *testing.T) {
	l := mixture(t, 150, 8, 3, 0.05, 3)
	res, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 150 {
		t.Fatalf("labels = %d", len(res.Labels))
	}
	seen := map[int]bool{}
	for _, lab := range res.Labels {
		if lab < 0 || lab >= res.Clusters {
			t.Fatalf("label %d out of [0,%d)", lab, res.Clusters)
		}
		seen[lab] = true
	}
	if len(seen) != res.Clusters {
		t.Fatalf("labels use %d of %d clusters", len(seen), res.Clusters)
	}
	// Bucket bookkeeping must cover the dataset.
	total := 0
	var gram int64
	for _, b := range res.Buckets {
		total += b.Size
		gram += b.GramBytes
	}
	if total != 150 || gram != res.GramBytes {
		t.Fatalf("bucket bookkeeping: total=%d gram=%d vs %d", total, gram, res.GramBytes)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	l := mixture(t, 20, 4, 2, 0.05, 5)
	if _, err := Run(bg, Source{Points: l.Points}, Config{K: 21}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if _, err := Run(bg, Source{Points: l.Points}, Config{M: 99}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("expected ErrBadConfig for M=99")
	}
	if _, err := Run(bg, Source{Points: l.Points}, Config{K: 2, M: 4, P: 7}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("expected ErrBadConfig for P > M")
	}
	if _, err := Run(bg, Source{Points: l.Points}, Config{K: 2, M: 4, P: -2}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("expected ErrBadConfig for P < -1")
	}
	if _, err := Run(bg, Source{Points: l.Points}, Config{K: 2, M: 4, Sigma: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("expected ErrBadConfig for Sigma < 0")
	}
}

func TestClusterDefaultsFromPaperLaws(t *testing.T) {
	l := mixture(t, 1024, 8, 4, 0.05, 6)
	res, err := Run(bg, Source{Points: l.Points}, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.SignatureBits != lsh.DefaultM(1024) {
		t.Fatalf("M = %d, want %d", res.SignatureBits, lsh.DefaultM(1024))
	}
	// K defaulted to CategoryLaw(1024) = 17 across buckets; total
	// produced clusters should be in that ballpark (bucket rounding
	// shifts it slightly).
	if res.Clusters < 8 || res.Clusters > 40 {
		t.Fatalf("clusters = %d, expected near 17", res.Clusters)
	}
}

func TestClusterMergeAblation(t *testing.T) {
	l := mixture(t, 300, 16, 4, 0.08, 8)
	merged, err := Run(bg, Source{Points: l.Points}, Config{K: 4, Seed: 9, M: 6})
	if err != nil {
		t.Fatal(err)
	}
	unmerged, err := Run(bg, Source{Points: l.Points}, Config{K: 4, Seed: 9, M: 6, P: -1})
	if err != nil {
		t.Fatal(err)
	}
	if merged.MergeRadius != 1 || unmerged.MergeRadius != -1 {
		t.Fatalf("radii: %d %d", merged.MergeRadius, unmerged.MergeRadius)
	}
	if len(merged.Buckets) > len(unmerged.Buckets) {
		t.Fatalf("merging cannot increase bucket count: %d vs %d",
			len(merged.Buckets), len(unmerged.Buckets))
	}
}

func TestClusterWorkerCountInvariant(t *testing.T) {
	l := mixture(t, 120, 8, 3, 0.04, 10)
	setProcs(t, 1)
	a, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	b, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("GOMAXPROCS changed the labels")
		}
	}
}

func TestClusterSinglePointAndTinyBuckets(t *testing.T) {
	l := mixture(t, 5, 3, 2, 0.01, 12)
	res, err := Run(bg, Source{Points: l.Points}, Config{K: 2, Seed: 13, M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 5 {
		t.Fatalf("labels = %v", res.Labels)
	}
}

func TestClusterEmpty(t *testing.T) {
	if _, err := Run(bg, Source{Points: matrixOfSize(0, 0)}, Config{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestClusterWithAlternateFamilies(t *testing.T) {
	l := mixture(t, 150, 12, 3, 0.02, 14)
	sim, err := lsh.FitSimHash(l.Points, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := lsh.FitSpectral(l.Points, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// SimHash preserves blob locality, so accuracy stays high. Spectral
	// hashing's median thresholds deliberately balance each bit, which
	// cuts straight through clusters — it runs correctly but pays an
	// accuracy price on clustered data (exactly why the paper prefers
	// valley thresholds there; spectral hashing is for skewed data).
	for name, fam := range map[string]lsh.Family{"simhash": sim, "spectral": spec} {
		res, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 2, Family: fam})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Labels) != 150 || res.Clusters < 1 {
			t.Fatalf("%s: bad result %+v", name, res)
		}
		if res.SignatureBits != 5 {
			t.Fatalf("%s: M = %d, want family bits", name, res.SignatureBits)
		}
		acc, err := metricsAccuracy(l.Labels, res.Labels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "simhash" && acc < 0.85 {
			t.Fatalf("simhash accuracy %v", acc)
		}
	}
}

func TestBucketK(t *testing.T) {
	cases := []struct{ k, ni, n, want int }{
		{10, 50, 100, 5},
		{10, 1, 100, 1}, // floor at 1
		{10, 100, 100, 10},
		{3, 2, 100, 1},
		{100, 5, 100, 5}, // cap at ni
	}
	for _, c := range cases {
		if got := BucketK(c.k, c.ni, c.n); got != c.want {
			t.Errorf("BucketK(%d,%d,%d) = %d, want %d", c.k, c.ni, c.n, got, c.want)
		}
	}
}
