package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPurity(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	if p, err := Purity(truth, []int{5, 5, 7, 7}); err != nil || p != 1 {
		t.Fatalf("perfect purity = %v, %v", p, err)
	}
	// Splitting a cluster cannot hurt purity.
	split, _ := Purity(truth, []int{0, 1, 2, 3})
	if split != 1 {
		t.Fatalf("singleton purity = %v, want 1", split)
	}
	mixed, _ := Purity(truth, []int{0, 0, 0, 0})
	if mixed != 0.5 {
		t.Fatalf("one-cluster purity = %v, want 0.5", mixed)
	}
	if _, err := Purity(nil, nil); err == nil {
		t.Fatal("expected error for empty labels")
	}
	if _, err := Purity([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("expected error for mismatch")
	}
}

func TestNMI(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	if v, err := NMI(truth, []int{9, 9, 4, 4}); err != nil || math.Abs(v-1) > 1e-12 {
		t.Fatalf("identical partitions NMI = %v, %v", v, err)
	}
	// Single-cluster prediction carries no information.
	if v, _ := NMI(truth, []int{0, 0, 0, 0}); v != 0 {
		t.Fatalf("single-cluster NMI = %v, want 0", v)
	}
	// Both single-cluster: defined as 1.
	if v, _ := NMI([]int{0, 0}, []int{3, 3}); v != 1 {
		t.Fatalf("degenerate NMI = %v, want 1", v)
	}
}

func TestAdjustedRand(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	if v, err := AdjustedRand(truth, []int{7, 7, 8, 8}); err != nil || math.Abs(v-1) > 1e-12 {
		t.Fatalf("identical ARI = %v, %v", v, err)
	}
	// Anti-correlated-ish labeling gives low/negative ARI.
	v, err := AdjustedRand([]int{0, 0, 1, 1}, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v > 0 {
		t.Fatalf("crossed ARI = %v, want <= 0", v)
	}
	if v, _ := AdjustedRand([]int{0}, []int{5}); v != 1 {
		t.Fatal("single point must give ARI 1")
	}
}

// Property: all agreement measures are symmetric-bounded and maximal on
// identical partitions.
func TestPropAgreementMeasures(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		p, err1 := Purity(a, b)
		nmi, err2 := NMI(a, b)
		ari, err3 := AdjustedRand(a, b)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if p < 0 || p > 1 || nmi < -1e-12 || nmi > 1+1e-12 || ari > 1+1e-12 {
			return false
		}
		selfNMI, _ := NMI(a, a)
		selfARI, _ := AdjustedRand(a, a)
		return math.Abs(selfNMI-1) < 1e-9 && math.Abs(selfARI-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: NMI is symmetric in its arguments.
func TestPropNMISymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(3)
			b[i] = rng.Intn(5)
		}
		ab, err1 := NMI(a, b)
		ba, err2 := NMI(b, a)
		return err1 == nil && err2 == nil && math.Abs(ab-ba) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPairRecall: a hand-counted case, the degenerate ends, and, on
// random labelings, the contingency-table count against a brute-force
// walk over every pair of points.
func TestPairRecall(t *testing.T) {
	// Class 0 split 3+1 keeps 3 of its 6 pairs; class 1 keeps its one.
	if v, err := PairRecall([]int{0, 0, 0, 0, 1, 1}, []int{0, 0, 0, 1, 2, 2}); err != nil || math.Abs(v-4.0/7.0) > 1e-12 {
		t.Fatalf("PairRecall = %v, %v; want 4/7", v, err)
	}
	if v, _ := PairRecall([]int{0, 1, 2}, []int{0, 0, 0}); v != 0 {
		t.Fatalf("no same-class pair: PairRecall = %v, want 0", v)
	}
	if _, err := PairRecall([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		truth := make([]int, n)
		pred := make([]int, n)
		for i := range truth {
			truth[i] = rng.Intn(5)
			pred[i] = rng.Intn(7)
		}
		same, kept := 0, 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if truth[i] == truth[j] {
					same++
					if pred[i] == pred[j] {
						kept++
					}
				}
			}
		}
		want := 0.0
		if same > 0 {
			want = float64(kept) / float64(same)
		}
		got, err := PairRecall(truth, pred)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
