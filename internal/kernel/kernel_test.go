package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestGaussianBasics(t *testing.T) {
	k := Gaussian(1)
	x := []float64{0, 0}
	if got := k(x, x); got != 1 {
		t.Fatalf("k(x,x) = %v, want 1", got)
	}
	// ||x-y||^2 = 2 -> exp(-1)
	y := []float64{1, 1}
	if got := k(x, y); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("k = %v, want e^-1", got)
	}
	// Symmetric.
	if k(x, y) != k(y, x) {
		t.Fatal("kernel must be symmetric")
	}
}

func TestGaussianBandwidth(t *testing.T) {
	x := []float64{0}
	y := []float64{1}
	wide := Gaussian(10)(x, y)
	narrow := Gaussian(0.1)(x, y)
	if wide <= narrow {
		t.Fatal("wider bandwidth must give higher similarity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sigma <= 0")
		}
	}()
	Gaussian(0)
}

func TestGramWithDiagonal(t *testing.T) {
	pts, _ := matrix.FromRows([][]float64{{0}, {1}})
	g := GramWithDiagonal(pts, Gaussian(1))
	if g.At(0, 0) != 1 || g.At(1, 1) != 1 {
		t.Fatalf("diagonal = %v %v, want 1", g.At(0, 0), g.At(1, 1))
	}
	if g.At(0, 1) != Gaussian(1)([]float64{0}, []float64{1}) {
		t.Fatal("off-diagonal changed")
	}
}

func TestMedianSigma(t *testing.T) {
	pts, _ := matrix.FromRows([][]float64{{0}, {1}, {2}, {3}})
	sigma := MedianSigma(pts, 1000, 1)
	if sigma < 0.5 || sigma > 3 {
		t.Fatalf("median sigma = %v out of plausible range", sigma)
	}
	// Degenerate inputs fall back to 1.
	if MedianSigma(matrix.NewDense(1, 1), 10, 1) != 1 {
		t.Fatal("single point must give sigma 1")
	}
	if MedianSigma(matrix.NewDense(5, 2), 10, 1) != 1 {
		t.Fatal("identical points must give sigma 1")
	}
}

func TestGramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := matrix.NewDense(20, 3)
	for i := range pts.Data() {
		pts.Data()[i] = rng.Float64()
	}
	s := Gram(pts, Gaussian(0.5))
	if !s.IsSymmetric(0) {
		t.Fatal("Gram must be symmetric")
	}
	for i := 0; i < 20; i++ {
		if s.At(i, i) != 0 {
			t.Fatal("Gram diagonal must be zero (Algorithm 2)")
		}
		for j := 0; j < 20; j++ {
			if v := s.At(i, j); v < 0 || v > 1 {
				t.Fatalf("similarity out of [0,1]: %v", v)
			}
		}
	}
}

func TestGramSmall(t *testing.T) {
	pts, _ := matrix.FromRows([][]float64{{0}, {1}})
	s := Gram(pts, Gaussian(1))
	want := math.Exp(-0.5)
	if math.Abs(s.At(0, 1)-want) > 1e-12 {
		t.Fatalf("s01 = %v, want %v", s.At(0, 1), want)
	}
	empty := Gram(matrix.NewDense(0, 0), Gaussian(1))
	if empty.Rows() != 0 {
		t.Fatal("empty Gram must be 0x0")
	}
}

func TestSubGramMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := matrix.NewDense(10, 2)
	for i := range pts.Data() {
		pts.Data()[i] = rng.Float64()
	}
	k := Gaussian(0.7)
	full := Gram(pts, k)
	idxs := []int{1, 4, 7}
	sub := SubGram(pts, idxs, k)
	for a, i := range idxs {
		for b, j := range idxs {
			if math.Abs(sub.At(a, b)-full.At(i, j)) > 1e-12 {
				t.Fatalf("sub(%d,%d) != full(%d,%d)", a, b, i, j)
			}
		}
	}
}

func TestGramBytes(t *testing.T) {
	if GramBytes(1000) != 4_000_000 {
		t.Fatalf("GramBytes(1000) = %d", GramBytes(1000))
	}
}

// Property: the approximated Gram never has larger Frobenius norm than
// the full one (it is the full matrix with some entries zeroed). Its
// squared norm is the sum of its diagonal blocks' — the bucket
// sub-Grams — which is how Figure 5 streams it.
func TestPropApproxFrobeniusBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		pts := matrix.NewDense(n, 2)
		for i := range pts.Data() {
			pts.Data()[i] = rng.Float64()
		}
		// Random 2-way split.
		var b0, b1 []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b0 = append(b0, i)
			} else {
				b1 = append(b1, i)
			}
		}
		k := Gaussian(0.5)
		var approx float64
		for _, b := range [][]int{b0, b1} {
			f := SubGram(pts, b, k).Frobenius()
			approx += f * f
		}
		return math.Sqrt(approx) <= Gram(pts, k).Frobenius()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gaussian similarity decreases with distance.
func TestPropGaussianMonotone(t *testing.T) {
	k := Gaussian(1)
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > 100 || b > 100 {
			return true // exp underflow region, both 0
		}
		near := k([]float64{0}, []float64{math.Min(a, b)})
		far := k([]float64{0}, []float64{math.Max(a, b)})
		return near >= far
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
