package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// testBlobs builds a labeled mixture for the baseline tests.
func testBlobs(t *testing.T, n, d, k int, noise float64, seed int64) *dataset.Labeled {
	t.Helper()
	l, err := dataset.Mixture(dataset.MixtureConfig{N: n, D: d, K: k, Noise: noise, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func accuracyOf(t *testing.T, truth, pred []int) float64 {
	t.Helper()
	acc, err := metrics.Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestSCRecoversBlobs(t *testing.T) {
	l := testBlobs(t, 90, 16, 3, 0.02, 1)
	res, err := SC(l.Points, Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, l.Labels, res.Labels); acc < 0.95 {
		t.Fatalf("SC accuracy = %v", acc)
	}
	if res.GramBytes != 4*90*90 {
		t.Fatalf("GramBytes = %d", res.GramBytes)
	}
}

func TestPSCRecoversBlobs(t *testing.T) {
	l := testBlobs(t, 120, 16, 3, 0.02, 3)
	res, err := PSC(l.Points, Config{K: 3, Seed: 4, Neighbors: 15})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, l.Labels, res.Labels); acc < 0.9 {
		t.Fatalf("PSC accuracy = %v", acc)
	}
	// Sparse graph must be far below the dense Gram cost.
	if res.GramBytes >= 4*120*120 {
		t.Fatalf("PSC memory %d not sparse", res.GramBytes)
	}
}

func TestPSCValidation(t *testing.T) {
	pts := matrix.NewDense(5, 2)
	if _, err := PSC(pts, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := PSC(pts, Config{K: 2, Neighbors: -3}); err == nil {
		t.Fatal("expected error for negative neighbors")
	}
	// Empty input.
	res, err := PSC(matrix.NewDense(0, 0), Config{K: 2})
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
}

func TestPSCNeighborsClamped(t *testing.T) {
	l := testBlobs(t, 20, 4, 2, 0.02, 5)
	res, err := PSC(l.Points, Config{K: 2, Seed: 6, Neighbors: 500})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, l.Labels, res.Labels); acc < 0.9 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestNYSTRecoversBlobs(t *testing.T) {
	l := testBlobs(t, 150, 16, 3, 0.02, 7)
	res, err := NYST(l.Points, Config{K: 3, Seed: 8, Samples: 40})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, l.Labels, res.Labels); acc < 0.9 {
		t.Fatalf("NYST accuracy = %v", acc)
	}
	// n*m + m^2 entries at 4 bytes.
	want := int64(4 * (150*40 + 40*40))
	if res.GramBytes != want {
		t.Fatalf("GramBytes = %d, want %d", res.GramBytes, want)
	}
}

func TestNYSTValidation(t *testing.T) {
	pts := matrix.NewDense(5, 2)
	if _, err := NYST(pts, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := NYST(pts, Config{K: 2, Samples: -3}); err == nil {
		t.Fatal("expected error for negative samples")
	}
	res, err := NYST(matrix.NewDense(0, 0), Config{K: 2})
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
}

func TestNYSTSamplesClamped(t *testing.T) {
	l := testBlobs(t, 30, 8, 2, 0.02, 9)
	res, err := NYST(l.Points, Config{K: 2, Seed: 10, Samples: 500})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, l.Labels, res.Labels); acc < 0.9 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestKEqualsNDegenerate(t *testing.T) {
	l := testBlobs(t, 6, 3, 2, 0.02, 11)
	for name, run := range map[string]func() (*Result, error){
		"sc":   func() (*Result, error) { return SC(l.Points, Config{K: 6, Seed: 1}) },
		"psc":  func() (*Result, error) { return PSC(l.Points, Config{K: 6, Seed: 1}) },
		"nyst": func() (*Result, error) { return NYST(l.Points, Config{K: 6, Seed: 1}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Labels) != 6 {
			t.Fatalf("%s: labels = %v", name, res.Labels)
		}
	}
}

func TestMemoryOrdering(t *testing.T) {
	// The paper's Figure 6(b) ordering: DASC < PSC < SC. Here we verify
	// the baseline halves: sparse PSC below dense SC, NYST below SC.
	l := testBlobs(t, 200, 8, 4, 0.03, 12)
	sc, err := SC(l.Points, Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	psc, err := PSC(l.Points, Config{K: 4, Seed: 1, Neighbors: 10})
	if err != nil {
		t.Fatal(err)
	}
	nyst, err := NYST(l.Points, Config{K: 4, Seed: 1, Samples: 50})
	if err != nil {
		t.Fatal(err)
	}
	if psc.GramBytes >= sc.GramBytes || nyst.GramBytes >= sc.GramBytes {
		t.Fatalf("memory ordering violated: sc=%d psc=%d nyst=%d",
			sc.GramBytes, psc.GramBytes, nyst.GramBytes)
	}
}

func TestKMRecoversBlobsButNotRings(t *testing.T) {
	// On Gaussian blobs, plain K-means is fine.
	l := testBlobs(t, 90, 8, 3, 0.02, 20)
	res, err := KM(l.Points, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, l.Labels, res.Labels); acc < 0.95 {
		t.Fatalf("KM blob accuracy = %v", acc)
	}
	if res.GramBytes != 0 {
		t.Fatalf("KM must report zero Gram memory, got %d", res.GramBytes)
	}
	// On concentric rings it must fail where spectral methods succeed —
	// the paper's motivation for spectral clustering (§3.1).
	rng := rand.New(rand.NewSource(21))
	n := 60
	pts := matrix.NewDense(2*n, 2)
	truth := make([]int, 2*n)
	for i := 0; i < n; i++ {
		theta := rng.Float64() * 2 * math.Pi
		pts.Set(i, 0, math.Cos(theta))
		pts.Set(i, 1, math.Sin(theta))
		theta = rng.Float64() * 2 * math.Pi
		pts.Set(n+i, 0, 5*math.Cos(theta))
		pts.Set(n+i, 1, 5*math.Sin(theta))
		truth[n+i] = 1
	}
	km, err := KM(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := SC(pts, Config{K: 2, Seed: 1, Sigma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	kmAcc := accuracyOf(t, truth, km.Labels)
	scAcc := accuracyOf(t, truth, sc.Labels)
	if scAcc != 1 {
		t.Fatalf("SC must separate rings, got %v", scAcc)
	}
	if kmAcc >= scAcc {
		t.Fatalf("KM should fail on rings: km=%v sc=%v", kmAcc, scAcc)
	}
}

func TestKMValidation(t *testing.T) {
	if _, err := KM(matrix.NewDense(3, 2), Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	res, err := KM(matrix.NewDense(0, 0), Config{K: 2})
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
}

func TestKNNGraphSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := matrix.NewDense(30, 3)
	for i := range pts.Data() {
		pts.Data()[i] = rng.Float64()
	}
	g, err := buildKNNGraph(pts, 5, kernel.Func(func(x, y []float64) float64 {
		return 1 / (1 + matrix.SqDist(x, y))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSymmetric(0) {
		t.Fatal("t-NN graph must be symmetric after OR-symmetrization")
	}
	// Each node has at least t edges after OR-symmetrization.
	d := g.Dense()
	for i := 0; i < 30; i++ {
		edges := 0
		for _, v := range d.Row(i) {
			if v != 0 {
				edges++
			}
		}
		if edges < 5 {
			t.Fatalf("node %d has %d < 5 edges", i, edges)
		}
	}
}

// TestBaselineSparsityCounters: the baselines must report the entry
// counts their eigensolvers actually saw — dense n² for SC, the
// measured t-NN graph for PSC — so memory comparisons against DASC's
// per-bucket fill use one metric.
func TestBaselineSparsityCounters(t *testing.T) {
	l := testBlobs(t, 120, 8, 3, 0.04, 17)
	n := int64(120)

	sc, err := SC(l.Points, Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sc.NNZ != n*n || sc.Fill != 1 {
		t.Fatalf("SC counters: nnz=%d fill=%v", sc.NNZ, sc.Fill)
	}

	psc, err := PSC(l.Points, Config{K: 3, Seed: 2, Neighbors: 10})
	if err != nil {
		t.Fatal(err)
	}
	if psc.NNZ == 0 || psc.NNZ >= n*n {
		t.Fatalf("PSC nnz = %d, want sparse", psc.NNZ)
	}
	if want := float64(psc.NNZ) / float64(n*n); math.Abs(psc.Fill-want) > 1e-15 {
		t.Fatalf("PSC fill = %v, want %v", psc.Fill, want)
	}
	if psc.GramBytes != 8*psc.NNZ {
		t.Fatalf("PSC GramBytes %d vs 8·nnz %d", psc.GramBytes, 8*psc.NNZ)
	}

	ny, err := NYST(l.Points, Config{K: 3, Seed: 2, Samples: 24})
	if err != nil {
		t.Fatal(err)
	}
	if ny.NNZ == 0 || ny.Fill <= 0 || ny.Fill >= 1 {
		t.Fatalf("NYST counters: nnz=%d fill=%v", ny.NNZ, ny.Fill)
	}
}
