package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestAccuracyPerfect(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{5, 5, 9, 9, 1, 1} // same partition, renamed labels
	acc, err := Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
}

func TestAccuracyPartial(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 1}
	pred := []int{0, 0, 1, 1, 1, 1} // one point of class 0 mislabeled
	acc, err := Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-5.0/6.0) > 1e-12 {
		t.Fatalf("accuracy = %v, want 5/6", acc)
	}
}

func TestAccuracyDifferentClusterCounts(t *testing.T) {
	// More predicted clusters than classes: optimal matching picks the
	// best two.
	truth := []int{0, 0, 0, 1, 1, 1}
	pred := []int{0, 0, 2, 1, 1, 3}
	acc, err := Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-4.0/6.0) > 1e-12 {
		t.Fatalf("accuracy = %v, want 4/6", acc)
	}
	// Fewer predicted clusters than classes.
	truth2 := []int{0, 1, 2, 3}
	pred2 := []int{0, 0, 1, 1}
	acc2, err := Accuracy(truth2, pred2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc2-0.5) > 1e-12 {
		t.Fatalf("accuracy = %v, want 0.5", acc2)
	}
}

func TestAccuracyErrors(t *testing.T) {
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
}

// Property: accuracy is symmetric in which labeling is truth, bounded
// in (0,1], and 1 when labelings are equal.
func TestPropAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		ab, err1 := Accuracy(a, b)
		ba, err2 := Accuracy(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		self, err3 := Accuracy(a, a)
		if err3 != nil || self != 1 {
			return false
		}
		return math.Abs(ab-ba) < 1e-12 && ab > 0 && ab <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDaviesBouldinSeparatedVsOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	makeTwo := func(sep float64) (*matrix.Dense, []int) {
		pts := matrix.NewDense(40, 2)
		labels := make([]int, 40)
		for i := 0; i < 20; i++ {
			pts.Set(i, 0, rng.NormFloat64()*0.2)
			pts.Set(i, 1, rng.NormFloat64()*0.2)
			pts.Set(20+i, 0, sep+rng.NormFloat64()*0.2)
			pts.Set(20+i, 1, rng.NormFloat64()*0.2)
			labels[20+i] = 1
		}
		return pts, labels
	}
	far, lf := makeTwo(10)
	near, ln := makeTwo(0.5)
	dbiFar, err := DaviesBouldin(far, lf)
	if err != nil {
		t.Fatal(err)
	}
	dbiNear, err := DaviesBouldin(near, ln)
	if err != nil {
		t.Fatal(err)
	}
	if dbiFar >= dbiNear {
		t.Fatalf("DBI must reward separation: far=%v near=%v", dbiFar, dbiNear)
	}
}

func TestDaviesBouldinEdgeCases(t *testing.T) {
	pts, _ := matrix.FromRows([][]float64{{0, 0}, {1, 1}})
	// Single cluster: DBI defined as 0 here.
	dbi, err := DaviesBouldin(pts, []int{0, 0})
	if err != nil || dbi != 0 {
		t.Fatalf("single-cluster DBI = %v, %v", dbi, err)
	}
	// Coincident centroids yield +Inf ratio.
	pts2, _ := matrix.FromRows([][]float64{{0, 0}, {2, 2}, {0, 0}, {2, 2}})
	dbi2, err := DaviesBouldin(pts2, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dbi2, 1) {
		t.Fatalf("coincident centroids DBI = %v, want +Inf", dbi2)
	}
	if _, err := DaviesBouldin(pts, []int{0}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestAverageSquaredError(t *testing.T) {
	pts, _ := matrix.FromRows([][]float64{{0}, {2}, {10}, {12}})
	labels := []int{0, 0, 1, 1}
	// Centroids 1 and 11; each point at squared distance 1.
	ase, err := AverageSquaredError(pts, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ase-1) > 1e-12 {
		t.Fatalf("ASE = %v, want 1", ase)
	}
	// Perfect clustering of coincident points: 0.
	pts2, _ := matrix.FromRows([][]float64{{1}, {1}, {5}, {5}})
	ase2, _ := AverageSquaredError(pts2, []int{0, 0, 1, 1})
	if ase2 != 0 {
		t.Fatalf("ASE = %v, want 0", ase2)
	}
	if _, err := AverageSquaredError(pts, []int{0}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

// Property: ASE with the true per-cluster means is never worse than
// merging everything into one cluster.
func TestPropASESplitBeatsMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		pts := matrix.NewDense(n, 2)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			labels[i] = i % 2
			pts.Set(i, 0, float64(labels[i])*5+rng.NormFloat64())
			pts.Set(i, 1, rng.NormFloat64())
		}
		single := make([]int, n)
		aseSplit, err1 := AverageSquaredError(pts, labels)
		aseMerge, err2 := AverageSquaredError(pts, single)
		if err1 != nil || err2 != nil {
			return false
		}
		return aseSplit <= aseMerge+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouette(t *testing.T) {
	// Two tight, far-apart clusters: coefficient near 1.
	pts, _ := matrix.FromRows([][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
	})
	labels := []int{0, 0, 0, 1, 1, 1}
	s, err := Silhouette(pts, labels)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Fatalf("separated silhouette = %v, want ~1", s)
	}
	// Deliberately crossed labels: negative.
	bad, err := Silhouette(pts, []int{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bad >= s {
		t.Fatalf("crossed labels silhouette %v must be below %v", bad, s)
	}
	// Single cluster: neutral 0.
	one, err := Silhouette(pts, []int{0, 0, 0, 0, 0, 0})
	if err != nil || one != 0 {
		t.Fatalf("single cluster: %v %v", one, err)
	}
	// Singletons do not crash.
	if _, err := Silhouette(pts, []int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := Silhouette(pts, []int{0}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestHungarianKnownMatrix(t *testing.T) {
	// Max-weight matching of [[1,2],[3,4]] is 2+3=5 (anti-diagonal).
	w := [][]float64{{1, 2}, {3, 4}}
	if got := hungarianMax(w); got != 5 {
		t.Fatalf("hungarianMax = %v, want 5", got)
	}
	if hungarianMax(nil) != 0 {
		t.Fatal("empty matrix must give 0")
	}
}

// Property: Hungarian result is at least as good as the greedy
// diagonal assignment and never exceeds the sum of row maxima.
func TestPropHungarianBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		w := make([][]float64, n)
		var diag, rowMax float64
		for i := range w {
			w[i] = make([]float64, n)
			best := 0.0
			for j := range w[i] {
				w[i][j] = rng.Float64() * 10
				if w[i][j] > best {
					best = w[i][j]
				}
			}
			diag += w[i][i]
			rowMax += best
		}
		got := hungarianMax(w)
		return got >= diag-1e-9 && got <= rowMax+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
