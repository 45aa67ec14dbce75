package dasc_test

import (
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/emr"
	"repro/internal/kernel"
	"repro/internal/kernelml"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/spectral"
	"repro/internal/text"
)

// The integration suite checks cross-module invariants that no single
// package test can see: the DASC drivers agreeing, the document →
// pipeline → cluster chain preserving ground truth, and the consistency
// of the evaluation metrics across algorithms.

// TestAllDriversAgree runs the same configuration through the local,
// incremental and shipped-MapReduce drivers (the last at two executor
// slot counts) and requires identical partitions.
func TestAllDriversAgree(t *testing.T) {
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 220, D: 12, K: 4, Noise: 0.03, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 4, Seed: 61}
	src := core.Source{Points: l.Points}
	ref, err := core.Run(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(budget int64, exec mapreduce.Executor) *core.Result {
		t.Helper()
		c := cfg
		c.MemoryBudget, c.Executor = budget, exec
		res, err := core.Run(context.Background(), src, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc := run(ref.GramBytes/3+1, nil)
	mr := run(0, &mapreduce.Local{})
	shipped := run(0, &mapreduce.Local{Workers: 3})
	for name, labels := range map[string][]int{
		"incremental":     inc.Labels,
		"shipped":         mr.Labels,
		"shipped/3 slots": shipped.Labels,
	} {
		agree, err := metrics.Accuracy(ref.Labels, labels)
		if err != nil {
			t.Fatal(err)
		}
		if agree != 1 {
			t.Fatalf("%s driver diverged: agreement %v", name, agree)
		}
	}
}

// TestDocumentPipelineClusterChain exercises corpus -> text pipeline ->
// DASC -> metrics end to end.
func TestDocumentPipelineClusterChain(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{NumDocs: 240, NumCategories: 4, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	cleaned := make([][]string, len(c.Docs))
	for i, d := range c.Docs {
		cleaned[i] = text.Clean(d)
	}
	pts, _, err := text.VectorizeTopTerms(cleaned, 11)
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.Run(context.Background(), core.Source{Points: pts}, core.Config{K: 4, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(c.Labels, run.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("document chain accuracy = %v", acc)
	}
}

// TestMetricsConsistentAcrossAlgorithms: on an easy dataset every
// algorithm should reach the same partition, and then every agreement
// metric must report perfection for each of them.
func TestMetricsConsistentAcrossAlgorithms(t *testing.T) {
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 150, D: 8, K: 3, Noise: 0.015, Seed: 65})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string][]int{}
	if r, err := core.Run(context.Background(), core.Source{Points: l.Points}, core.Config{K: 3, Seed: 1}); err == nil {
		runs["dasc"] = r.Labels
	} else {
		t.Fatal(err)
	}
	if r, err := baseline.SC(l.Points, baseline.Config{K: 3, Seed: 1}); err == nil {
		runs["sc"] = r.Labels
	} else {
		t.Fatal(err)
	}
	if r, err := baseline.PSC(l.Points, baseline.Config{K: 3, Seed: 1}); err == nil {
		runs["psc"] = r.Labels
	} else {
		t.Fatal(err)
	}
	gram := kernel.Gram(l.Points, kernel.Gaussian(0.5))
	if r, err := kernelml.KernelKMeans(gram, kernelml.KernelKMeansConfig{K: 3, Seed: 1}); err == nil {
		runs["kkmeans"] = r.Labels
	} else {
		t.Fatal(err)
	}
	for name, labels := range runs {
		acc, err1 := metrics.Accuracy(l.Labels, labels)
		nmi, err2 := metrics.NMI(l.Labels, labels)
		ari, err3 := metrics.AdjustedRand(l.Labels, labels)
		pur, err4 := metrics.Purity(l.Labels, labels)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			t.Fatalf("%s: metric errors", name)
		}
		if acc != 1 || nmi < 0.999 || ari < 0.999 || pur != 1 {
			t.Fatalf("%s: acc=%v nmi=%v ari=%v purity=%v", name, acc, nmi, ari, pur)
		}
	}
}

// TestEMRFlowMatchesRealWork: the simulated flow's Gram memory must
// equal the real run's accounting for the same configuration.
func TestEMRFlowMatchesRealWork(t *testing.T) {
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 512, D: 16, K: 8, Noise: 0.04, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 8, Seed: 67}
	run, err := core.Run(context.Background(), core.Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flow, part, err := core.EMRFlow(context.Background(), l.Points, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumBuckets() != len(run.Buckets) {
		t.Fatalf("flow buckets %d vs run buckets %d", part.NumBuckets(), len(run.Buckets))
	}
	cluster, err := emr.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.RunJobFlow(flow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps[1].Schedule.TotalMemory != run.GramBytes {
		t.Fatalf("simulated gram %d vs real %d",
			rep.Steps[1].Schedule.TotalMemory, run.GramBytes)
	}
}

// TestFamilySwapKeepsCoverage: any LSH family must still produce a
// disjoint cover of the dataset through the core driver.
func TestFamilySwapKeepsCoverage(t *testing.T) {
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 130, D: 10, K: 3, Noise: 0.05, Seed: 68})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := lsh.FitSimHash(l.Points, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Source{Points: l.Points}, core.Config{K: 3, Seed: 69, Family: sim})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range res.Buckets {
		total += b.Size
	}
	if total != 130 {
		t.Fatalf("buckets cover %d of 130 points", total)
	}
}

// TestSparseDenseSpectralAgreement: dense and sparse spectral paths
// must agree on a clean two-cluster problem.
func TestSparseDenseSpectralAgreement(t *testing.T) {
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 100, D: 6, K: 2, Noise: 0.02, Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	s := kernel.Gram(l.Points, kernel.Gaussian(0.5))
	dense, err := spectral.Cluster(s, spectral.Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// PSC uses the sparse path end to end.
	sp, err := baseline.PSC(l.Points, baseline.Config{K: 2, Seed: 3, Neighbors: 30})
	if err != nil {
		t.Fatal(err)
	}
	agree, err := metrics.Accuracy(dense.Labels, sp.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Fatalf("dense/sparse spectral disagree: %v", agree)
	}
}
