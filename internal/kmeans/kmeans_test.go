package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// blobs generates k well-separated Gaussian blobs of size perBlob in d
// dimensions and returns the points with their ground-truth labels.
func blobs(rng *rand.Rand, k, perBlob, d int, sep float64) (*matrix.Dense, []int) {
	n := k * perBlob
	pts := matrix.NewDense(n, d)
	truth := make([]int, n)
	for c := 0; c < k; c++ {
		center := make([]float64, d)
		for j := range center {
			center[j] = float64(c) * sep
		}
		for i := 0; i < perBlob; i++ {
			row := pts.Row(c*perBlob + i)
			for j := range row {
				row[j] = center[j] + rng.NormFloat64()*0.1
			}
			truth[c*perBlob+i] = c
		}
	}
	return pts, truth
}

// agreeUpToPermutation checks that two labelings induce the same
// partition of the points.
func agreeUpToPermutation(a, b []int) bool {
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

func TestRunSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, truth := blobs(rng, 3, 40, 4, 10)
	res, err := Run(pts, Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !agreeUpToPermutation(truth, res.Labels) {
		t.Fatal("well-separated blobs must be recovered exactly")
	}
	if res.Inertia > float64(pts.Rows())*0.1 {
		t.Fatalf("inertia too high: %v", res.Inertia)
	}
}

func TestRunValidation(t *testing.T) {
	pts := matrix.NewDense(3, 2)
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Run(pts, Config{K: 4}); err == nil {
		t.Fatal("expected error for K>n")
	}
}

func TestRunKEqualsN(t *testing.T) {
	pts, _ := matrix.FromRows([][]float64{{0, 0}, {5, 5}, {9, 0}})
	res, err := Run(pts, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Fatalf("K=n must give singleton clusters, labels=%v", res.Labels)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("inertia = %v, want 0", res.Inertia)
	}
}

func TestRunSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, _ := blobs(rng, 1, 50, 3, 0)
	res, err := Run(pts, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("all labels must be 0 for K=1")
		}
	}
	// Centroid must be the mean.
	for j := 0; j < 3; j++ {
		if math.Abs(res.Centroids.At(0, j)-matrix.Mean(pts.Col(j))) > 1e-9 {
			t.Fatal("K=1 centroid must be the global mean")
		}
	}
}

func TestRunDuplicatePoints(t *testing.T) {
	// More clusters than distinct points: empty-cluster repair must not
	// loop or crash.
	pts, _ := matrix.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}})
	res, err := Run(pts, Config{K: 3, Seed: 7, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 4 {
		t.Fatalf("labels = %v", res.Labels)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts, _ := blobs(rng, 4, 25, 5, 8)
	r1, err := Run(pts, Config{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(pts, Config{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Labels {
		if r1.Labels[i] != r2.Labels[i] {
			t.Fatal("same seed must give identical labels")
		}
	}
	if r1.Inertia != r2.Inertia {
		t.Fatal("same seed must give identical inertia")
	}
}

func TestRunWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts, _ := blobs(rng, 3, 30, 4, 6)
	setProcs(t, 1)
	serial, err := Run(pts, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	parallel, err := Run(pts, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Labels {
		if serial.Labels[i] != parallel.Labels[i] {
			t.Fatal("GOMAXPROCS must not change the result")
		}
	}
}

// Property: every label is in range and every cluster is non-empty.
func TestPropLabelsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		d := 1 + rng.Intn(5)
		k := 1 + rng.Intn(4)
		if k > n {
			k = n
		}
		pts := matrix.NewDense(n, d)
		for i := range pts.Data() {
			pts.Data()[i] = rng.Float64()
		}
		res, err := Run(pts, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		seen := make([]bool, k)
		for _, l := range res.Labels {
			if l < 0 || l >= k {
				return false
			}
			seen[l] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: inertia never exceeds the inertia of the 1-cluster solution.
func TestPropInertiaMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		pts := matrix.NewDense(n, 3)
		for i := range pts.Data() {
			pts.Data()[i] = rng.NormFloat64()
		}
		r1, err := Run(pts, Config{K: 1, Seed: seed})
		if err != nil {
			return false
		}
		rk, err := Run(pts, Config{K: 3, Seed: seed})
		if err != nil {
			return false
		}
		return rk.Inertia <= r1.Inertia+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
