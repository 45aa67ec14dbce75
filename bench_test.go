// The root benchmark suite regenerates every table and figure of the
// paper (one Benchmark per artifact, delegating to
// internal/experiments at Quick scale), measures the ablations called
// out in DESIGN.md, and benchmarks the hot substrates.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Accuracy-style results are attached to benchmarks via b.ReportMetric
// (acc, gramfrac, buckets), so `go test -bench` output doubles as a
// compact reproduction report.
package dasc_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/kmeans"
	"repro/internal/linalg"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/spectral"
	"repro/internal/text"
)

// ---- one bench per paper artifact ----

func BenchmarkFig1Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure1(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig2Collision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure2(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1CategoryLaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table1(); len(tab.Rows) != 12 {
			b.Fatal("unexpected table")
		}
	}
}

func BenchmarkTable2ClusterConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table2(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Quality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Fnorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TimeMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Elasticity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benches (DESIGN.md "key design choices") ----

func ablationData(b *testing.B) *dataset.Labeled {
	b.Helper()
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 2048, D: 32, K: 16, Noise: 0.04, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func reportDASC(b *testing.B, l *dataset.Labeled, cfg core.Config) {
	b.Helper()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Run(context.Background(), core.Source{Points: l.Points}, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		b.Fatal(err)
	}
	n := l.Points.Rows()
	b.ReportMetric(acc, "acc")
	b.ReportMetric(float64(res.GramBytes)/float64(4*n*n), "gramfrac")
	b.ReportMetric(float64(len(res.Buckets)), "buckets")
}

// BenchmarkAblationDimensionPolicy compares span-driven dimension
// selection against the uniform baseline (§4.2's argument).
func BenchmarkAblationDimensionPolicy(b *testing.B) {
	l := ablationData(b)
	for _, p := range []lsh.DimensionPolicy{lsh.TopSpan, lsh.SpanWeighted, lsh.Uniform} {
		b.Run(p.String(), func(b *testing.B) {
			reportDASC(b, l, core.Config{K: 16, Seed: 1, Policy: p})
		})
	}
}

// BenchmarkAblationM sweeps the signature width (Figure 2's knob):
// accuracy trades against bucket count and Gram memory.
func BenchmarkAblationM(b *testing.B) {
	l := ablationData(b)
	for _, m := range []int{2, 4, 6, 8, 12} {
		b.Run(fmt.Sprintf("%02dbits", m), func(b *testing.B) {
			reportDASC(b, l, core.Config{K: 16, Seed: 1, M: m})
		})
	}
}

// BenchmarkAblationMerge toggles near-duplicate bucket merging (Eq. 6).
func BenchmarkAblationMerge(b *testing.B) {
	l := ablationData(b)
	b.Run("merge-on", func(b *testing.B) {
		reportDASC(b, l, core.Config{K: 16, Seed: 1, M: 8})
	})
	b.Run("merge-off", func(b *testing.B) {
		reportDASC(b, l, core.Config{K: 16, Seed: 1, M: 8, P: -1})
	})
}

// BenchmarkAblationLSHFamily swaps the paper's span/threshold hash for
// the alternative families of §3.2/§5.1 (SimHash, spectral hashing) and
// reports the accuracy/memory consequences.
func BenchmarkAblationLSHFamily(b *testing.B) {
	l := ablationData(b)
	families := map[string]func() lsh.Family{
		"paper": func() lsh.Family {
			h, err := lsh.Fit(l.Points, lsh.Config{M: 6, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			return h
		},
		"simhash": func() lsh.Family {
			h, err := lsh.FitSimHash(l.Points, 6, 1)
			if err != nil {
				b.Fatal(err)
			}
			return h
		},
		"spectral": func() lsh.Family {
			h, err := lsh.FitSpectral(l.Points, 6, 1)
			if err != nil {
				b.Fatal(err)
			}
			return h
		},
	}
	for name, mk := range families {
		b.Run(name, func(b *testing.B) {
			reportDASC(b, l, core.Config{K: 16, Seed: 1, Family: mk()})
		})
	}
}

// BenchmarkAblationEigensolver compares the dense tred2/tqli solver
// against Lanczos on a bucket-sized normalized Laplacian.
func BenchmarkAblationEigensolver(b *testing.B) {
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 220, D: 16, K: 4, Noise: 0.05, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	lap, err := spectral.Laplacian(kernel.Gram(l.Points, kernel.Gaussian(0.5)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense-tqli", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := linalg.EigenSym(lap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanczos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.Lanczos(linalg.MatVec(lap), lap.Rows(), 4, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- substrate micro-benchmarks ----

func BenchmarkGramMatrix(b *testing.B) {
	b.ReportAllocs()
	l, _ := dataset.Mixture(dataset.MixtureConfig{N: 512, D: 64, K: 4, Seed: 3})
	k := kernel.NewGaussian(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.Gram(l.Points, k)
	}
}

func BenchmarkLSHSignatures(b *testing.B) {
	b.ReportAllocs()
	l, _ := dataset.Mixture(dataset.MixtureConfig{N: 4096, D: 64, K: 8, Seed: 4})
	e, err := lsh.FitEnsemble(l.Points, lsh.Config{M: 10}, lsh.EnsembleConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Hash(l.Points)
	}
}

func BenchmarkKMeans(b *testing.B) {
	b.ReportAllocs()
	l, _ := dataset.Mixture(dataset.MixtureConfig{N: 2048, D: 16, K: 8, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Run(l.Points, kmeans.Config{K: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSymDense(b *testing.B) {
	b.ReportAllocs()
	l, _ := dataset.Mixture(dataset.MixtureConfig{N: 128, D: 16, K: 4, Seed: 6})
	s := kernel.Gram(l.Points, kernel.Gaussian(0.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := linalg.EigenSym(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPorterStem(b *testing.B) {
	b.ReportAllocs()
	words := []string{"clustering", "approximation", "signatures", "relational",
		"probabilistic", "dimensionality", "hopefulness", "generalizations"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			text.PorterStem(w)
		}
	}
}

func BenchmarkMapReduceLocalWordCount(b *testing.B) {
	b.ReportAllocs()
	doc, err := corpus.Generate(corpus.Config{NumDocs: 64, NumCategories: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	input := make([]mapreduce.Pair, len(doc.Docs))
	for i, d := range doc.Docs {
		input[i] = mapreduce.Pair{Key: doc.CategoryNames[doc.Labels[i]], Value: []byte(d)}
	}
	job := &mapreduce.Job{
		Name:        "bench-wc",
		NumReducers: 4,
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			for _, tok := range text.Tokenize(string(value)) {
				emit(tok, []byte{1})
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			emit(key, []byte{byte(len(values))})
			return nil
		},
	}
	exec := &mapreduce.Local{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Run(job, input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDASCvsSC gives the headline end-to-end comparison at one
// size: the Figure 6 story in a single benchmark pair.
func BenchmarkDASCvsSC(b *testing.B) {
	l, _ := dataset.Mixture(dataset.MixtureConfig{N: 1024, D: 32, K: 8, Noise: 0.03, Seed: 8})
	b.Run("dasc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(context.Background(), core.Source{Points: l.Points}, core.Config{K: 8, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SC(l.Points, baseline.Config{K: 8, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("psc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.PSC(l.Points, baseline.Config{K: 8, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nyst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.NYST(l.Points, baseline.Config{K: 8, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
