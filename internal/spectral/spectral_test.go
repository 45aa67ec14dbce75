package spectral

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

// ringsOrBlobs builds k Gaussian blobs with unit separation scale.
func makeBlobs(rng *rand.Rand, k, perBlob, d int, sep, noise float64) (*matrix.Dense, []int) {
	n := k * perBlob
	pts := matrix.NewDense(n, d)
	truth := make([]int, n)
	for c := 0; c < k; c++ {
		center := make([]float64, d)
		for j := range center {
			center[j] = float64((c+j)%k) * sep
		}
		center[0] = float64(c) * sep
		for i := 0; i < perBlob; i++ {
			row := pts.Row(c*perBlob + i)
			for j := range row {
				row[j] = center[j] + rng.NormFloat64()*noise
			}
			truth[c*perBlob+i] = c
		}
	}
	return pts, truth
}

func sameParition(a, b []int) bool {
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestClusterTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, truth := makeBlobs(rng, 2, 30, 2, 5, 0.2)
	s := kernel.Gram(pts, kernel.Gaussian(1))
	res, err := Cluster(s, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameParition(truth, res.Labels) {
		t.Fatal("two well-separated blobs must be recovered")
	}
}

func TestClusterThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, truth := makeBlobs(rng, 3, 25, 3, 6, 0.2)
	s := kernel.Gram(pts, kernel.Gaussian(1.2))
	res, err := Cluster(s, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sameParition(truth, res.Labels) {
		t.Fatal("three blobs must be recovered")
	}
	if len(res.Eigenvalues) != 3 {
		t.Fatalf("eigenvalues = %v", res.Eigenvalues)
	}
	// Leading eigenvalue of the normalized similarity is ~1 for a
	// connected graph.
	if res.Eigenvalues[0] < 0.8 || res.Eigenvalues[0] > 1.0001 {
		t.Fatalf("lambda0 = %v", res.Eigenvalues[0])
	}
}

func TestClusterNonGaussianShapes(t *testing.T) {
	// Two concentric rings: K-means fails on raw coordinates, spectral
	// clustering separates them — the paper's §3.1 motivation.
	rng := rand.New(rand.NewSource(3))
	n := 80
	pts := matrix.NewDense(2*n, 2)
	truth := make([]int, 2*n)
	for i := 0; i < n; i++ {
		theta := rng.Float64() * 2 * math.Pi
		r := 1 + rng.NormFloat64()*0.03
		pts.Set(i, 0, r*math.Cos(theta))
		pts.Set(i, 1, r*math.Sin(theta))
		truth[i] = 0
		theta = rng.Float64() * 2 * math.Pi
		r = 5 + rng.NormFloat64()*0.03
		pts.Set(n+i, 0, r*math.Cos(theta))
		pts.Set(n+i, 1, r*math.Sin(theta))
		truth[n+i] = 1
	}
	s := kernel.Gram(pts, kernel.Gaussian(0.4))
	res, err := Cluster(s, Config{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !sameParition(truth, res.Labels) {
		t.Fatal("concentric rings must be separated by spectral clustering")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := Cluster(matrix.NewDense(2, 3), Config{K: 1}); err == nil {
		t.Fatal("expected error for non-square")
	}
	if _, err := Cluster(matrix.NewDense(2, 2), Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestClusterEmptyAndDegenerate(t *testing.T) {
	res, err := Cluster(matrix.NewDense(0, 0), Config{K: 2})
	if err != nil || len(res.Labels) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	// K >= n: singleton clusters.
	s, _ := matrix.FromRows([][]float64{{0, 1}, {1, 0}})
	res, err = Cluster(s, Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] == res.Labels[1] {
		t.Fatal("K>=n must yield singletons")
	}
}

func TestClusterIsolatedPoint(t *testing.T) {
	// A zero row (isolated point) must not produce NaNs.
	s, _ := matrix.FromRows([][]float64{
		{0, 1, 0},
		{1, 0, 0},
		{0, 0, 0},
	})
	res, err := Cluster(s, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l < 0 || l >= 2 {
			t.Fatalf("labels = %v", res.Labels)
		}
	}
	for _, v := range res.Embedding.Data() {
		if math.IsNaN(v) {
			t.Fatal("NaN in embedding")
		}
	}
}

func TestLaplacianProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := makeBlobs(rng, 2, 10, 2, 3, 0.3)
	s := kernel.Gram(pts, kernel.Gaussian(1))
	before := s.Clone()
	lap, err := Laplacian(s)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(s, before, 0) {
		t.Fatal("Laplacian must not mutate its argument")
	}
	if !lap.IsSymmetric(1e-10) {
		t.Fatal("Laplacian must be symmetric")
	}
	if lap.MaxAbs() > 1+1e-9 {
		t.Fatalf("normalized Laplacian entries must be <= 1, got %v", lap.MaxAbs())
	}
	if _, err := Laplacian(matrix.NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square")
	}
}

// TestLaplacianMatchesFullLoop: on symmetric Gaussian Grams, one in five
// with an isolated row, the upper-triangle Laplacian is bit for bit the
// plain loop over the full matrix — full row sums, d_i^{-1/2} (0 for a
// zero degree), s_ij·(d_i·d_j).
func TestLaplacianMatchesFullLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(299)
		pts := matrix.NewDense(n, 5)
		for i := range pts.Data() {
			pts.Data()[i] = rng.NormFloat64()
		}
		s := kernel.Gram(pts, kernel.NewGaussian(0.5+rng.Float64()))
		if trial%5 == 0 {
			iso := rng.Intn(n)
			for j := 0; j < n; j++ {
				s.Set(iso, j, 0)
				s.Set(j, iso, 0)
			}
		}
		want := s.Clone()
		d := make([]float64, n)
		for i := range d {
			for _, v := range want.Row(i) {
				d[i] += v
			}
			if d[i] > 0 {
				d[i] = 1 / math.Sqrt(d[i])
			} else {
				d[i] = 0
			}
		}
		for i := range d {
			row := want.Row(i)
			for j := range row {
				row[j] *= d[i] * d[j]
			}
		}
		got, err := Laplacian(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("trial %d (n=%d): entry %d = %v, full loop %v", trial, n, i, got.Data()[i], v)
			}
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, _ := makeBlobs(rng, 2, 20, 2, 4, 0.3)
	s := kernel.Gram(pts, kernel.Gaussian(1))
	r1, err := Cluster(s, Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Cluster(s, Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Labels {
		if r1.Labels[i] != r2.Labels[i] {
			t.Fatal("same seed must reproduce labels")
		}
	}
}
