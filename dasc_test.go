package dasc_test

import (
	"context"
	"sync"
	"testing"
	"time"

	dasc "repro"
)

// TestPublicAPIQuickstart exercises the facade the README documents.
func TestPublicAPIQuickstart(t *testing.T) {
	data, err := dasc.Mixture(dasc.MixtureConfig{N: 300, D: 8, K: 3, Noise: 0.03, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dasc.Run(context.Background(), dasc.Source{Points: data.Points}, dasc.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := dasc.Accuracy(data.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy = %v", acc)
	}
	if _, err := dasc.DaviesBouldin(data.Points, res.Labels); err != nil {
		t.Fatal(err)
	}
	if _, err := dasc.AverageSquaredError(data.Points, res.Labels); err != nil {
		t.Fatal(err)
	}
	if _, err := dasc.NMI(data.Labels, res.Labels); err != nil {
		t.Fatal(err)
	}
	if _, err := dasc.Purity(data.Labels, res.Labels); err != nil {
		t.Fatal(err)
	}
	if _, err := dasc.AdjustedRand(data.Labels, res.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	data, err := dasc.Mixture(dasc.MixtureConfig{N: 120, D: 8, K: 2, Noise: 0.03, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*dasc.BaselineResult, error){
		"sc":  func() (*dasc.BaselineResult, error) { return dasc.SC(data.Points, dasc.BaselineConfig{K: 2, Seed: 1}) },
		"psc": func() (*dasc.BaselineResult, error) { return dasc.PSC(data.Points, dasc.BaselineConfig{K: 2, Seed: 1}) },
		"nyst": func() (*dasc.BaselineResult, error) {
			return dasc.NYST(data.Points, dasc.BaselineConfig{K: 2, Seed: 1})
		},
		"km": func() (*dasc.BaselineResult, error) { return dasc.KM(data.Points, dasc.BaselineConfig{K: 2, Seed: 1}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		acc, err := dasc.Accuracy(data.Labels, res.Labels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if acc < 0.9 {
			t.Fatalf("%s accuracy = %v", name, acc)
		}
	}
}

func TestPublicAPISpectralAndKernels(t *testing.T) {
	data, err := dasc.Mixture(dasc.MixtureConfig{N: 80, D: 4, K: 2, Noise: 0.02, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := dasc.Gram(data.Points, dasc.Gaussian(0.5))
	labels, err := dasc.SpectralCluster(s, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := dasc.Accuracy(data.Labels, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("spectral accuracy = %v", acc)
	}
	if _, err := dasc.FitLSH(data.Points, 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICorpusAndIncremental(t *testing.T) {
	c, err := dasc.GenerateCorpus(dasc.CorpusConfig{NumDocs: 200, NumCategories: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Vectorize(11)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := dasc.Run(context.Background(), dasc.Source{Points: data.Points}, dasc.Config{K: 4, Seed: 1, MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Waves < 1 || len(inc.Labels) != 200 {
		t.Fatalf("incremental result %+v", inc)
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	data, err := dasc.Mixture(dasc.MixtureConfig{N: 90, D: 6, K: 2, Noise: 0.03, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dasc.NewMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := dasc.RunWorker(m.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(time.Millisecond)
	}
	src := dasc.Source{Points: data.Points}
	res, err := dasc.Run(context.Background(), src, dasc.Config{K: 2, Seed: 1, Executor: m})
	if err != nil {
		t.Fatal(err)
	}
	local, err := dasc.Run(context.Background(), src, dasc.Config{K: 2, Seed: 1, Executor: &dasc.LocalExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	agree, err := dasc.Accuracy(local.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Fatalf("executors disagree: %v", agree)
	}
	m.Close()
	wg.Wait()
}

func TestPublicAPIEMR(t *testing.T) {
	data, err := dasc.Mixture(dasc.MixtureConfig{N: 256, D: 8, K: 4, Noise: 0.04, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := dasc.EMRFlow(data.Points, dasc.Config{K: 4, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dasc.NewEMRCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.RunJobFlow(flow)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTime <= 0 {
		t.Fatalf("simulated time = %v", rep.TotalTime)
	}
}

func TestPublicAPIMatrixHelpers(t *testing.T) {
	m := dasc.NewMatrix(2, 2)
	m.Set(0, 1, 3)
	if m.At(0, 1) != 3 {
		t.Fatal("matrix facade broken")
	}
	fr, err := dasc.FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil || fr.Rows() != 2 {
		t.Fatalf("FromRows: %v %v", fr, err)
	}
}
