package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// randSym builds a random symmetric matrix with entries from N(0,1).
func randSym(rng *rand.Rand, n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// symFromSpectrum builds Q diag(vals) Q^T with Q = I − 2vvᵀ/vᵀv, the
// Householder reflector of a random direction v: orthogonal, and dense
// enough that the eigenvectors are not the coordinate axes.
func symFromSpectrum(rng *rand.Rand, vals []float64) *matrix.Dense {
	n := len(vals)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	scale := 2 / matrix.Dot(v, v)
	q := matrix.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q.Add(i, j, -scale*v[i]*v[j])
		}
	}
	d := matrix.NewDense(n, n)
	for i, v := range vals {
		d.Set(i, i, v)
	}
	qd, _ := matrix.Mul(q, d)
	out, _ := matrix.Mul(qd, q.T())
	return out
}

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := matrix.FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-12 {
		t.Fatalf("vecs = %v", vecs)
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := matrix.FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("vals = %v, want [3 1]", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt2 up to sign.
	v0 := vecs.Col(0)
	if math.Abs(math.Abs(v0[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v0[0]-v0[1]) > 1e-10 {
		t.Fatalf("v0 = %v", v0)
	}
}

func TestEigenSymRejectsNonSquareAndAsymmetric(t *testing.T) {
	if _, _, err := EigenSym(matrix.NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square")
	}
	a, _ := matrix.FromRows([][]float64{{1, 2}, {0, 1}})
	if _, _, err := EigenSym(a); err == nil {
		t.Fatal("expected error for asymmetric")
	}
}

func TestEigenSymEmpty(t *testing.T) {
	vals, vecs, err := EigenSym(matrix.NewDense(0, 0))
	if err != nil || len(vals) != 0 || vecs.Rows() != 0 {
		t.Fatalf("empty: %v %v %v", vals, vecs, err)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 10, 25} {
		a := randSym(rng, n)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// A v_i = lambda_i v_i for each pair.
		for c := 0; c < n; c++ {
			v := vecs.Col(c)
			av, _ := a.MulVec(v)
			for r := 0; r < n; r++ {
				if math.Abs(av[r]-vals[c]*v[r]) > 1e-8*(1+a.MaxAbs()*float64(n)) {
					t.Fatalf("n=%d col=%d: residual %g", n, c, math.Abs(av[r]-vals[c]*v[r]))
				}
			}
		}
		if dev := Orthonormality(vecs); dev > 1e-9 {
			t.Fatalf("n=%d: eigenvector basis deviation %g", n, dev)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("n=%d: values not descending: %v", n, vals)
			}
		}
	}
}

func TestEigenSymKnownSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	want := []float64{9, 4, 1, 0.5, -2}
	a := symFromSpectrum(rng, want)
	vals, _, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-8 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestPropEigenTraceAndFrobenius(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randSym(rng, n)
		vals, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		var trace, sumVals, sq, sumSq float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		for _, v := range vals {
			sumVals += v
			sumSq += v * v
		}
		sq = a.Frobenius()
		sq *= sq
		return math.Abs(trace-sumVals) < 1e-7*(1+math.Abs(trace)) &&
			math.Abs(sq-sumSq) < 1e-6*(1+sq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKEigenSymDensePath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	want := []float64{10, 8, 3, 1, 0.1}
	a := symFromSpectrum(rng, want)
	vals, vecs, err := TopKEigenSym(upper(t, a), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vecs.Cols() != 2 || vecs.Rows() != 5 {
		t.Fatalf("shape: %d vals, vecs %dx%d", len(vals), vecs.Rows(), vecs.Cols())
	}
	if math.Abs(vals[0]-10) > 1e-8 || math.Abs(vals[1]-8) > 1e-8 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestTopKEigenSymEdgeCases(t *testing.T) {
	d, _ := matrix.FromRows([][]float64{{2, 0}, {0, 1}})
	a := upper(t, d)
	if _, _, err := TopKEigenSym(a, -1); err == nil {
		t.Fatal("expected error for negative k")
	}
	vals, vecs, err := TopKEigenSym(a, 0)
	if err != nil || len(vals) != 0 || vecs.Cols() != 0 {
		t.Fatalf("k=0: %v %v %v", vals, vecs, err)
	}
	vals, _, err = TopKEigenSym(a, 10) // k > n clamps
	if err != nil || len(vals) != 2 {
		t.Fatalf("k>n: %v %v", vals, err)
	}
}

func TestTopKEigenSymLanczosPath(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 300 // above the dense cutoff
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(n - i)
	}
	a := symFromSpectrum(rng, vals)
	got, vecs, err := TopKEigenSym(upper(t, a), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(got[i]-vals[i]) > 1e-6*float64(n) {
			t.Fatalf("lanczos vals = %v, want prefix of %v", got, vals[:3])
		}
	}
	if dev := Orthonormality(vecs); dev > 1e-6 {
		t.Fatalf("ritz vectors deviation %g", dev)
	}
}

// upper views the upper triangle of the square matrix a.
func upper(t *testing.T, a *matrix.Dense) *matrix.Sym {
	t.Helper()
	v, err := matrix.UpperSym(a)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestTopKEigenSymPackedMatchesFull: packed storage and a view over the
// full matrix give bit-identical eigenpairs, on the dense path (n = 50)
// and the Lanczos path (n = 300).
func TestTopKEigenSymPackedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{50, 300} {
		a := randSym(rng, n)
		packed := make([]float64, 0, matrix.PackedLen(n))
		for i := 0; i < n; i++ {
			packed = append(packed, a.Row(i)[i:]...)
		}
		p, err := matrix.NewPackedSym(n, packed)
		if err != nil {
			t.Fatal(err)
		}
		pv, pvecs, err := TopKEigenSym(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		fv, fvecs, err := TopKEigenSym(upper(t, a), 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fv {
			if math.Float64bits(pv[i]) != math.Float64bits(fv[i]) {
				t.Fatalf("n=%d: value %d packed %v, full %v", n, i, pv[i], fv[i])
			}
		}
		for i, v := range fvecs.Data() {
			if math.Float64bits(pvecs.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("n=%d: vector entry %d packed %v, full %v", n, i, pvecs.Data()[i], v)
			}
		}
	}
}
