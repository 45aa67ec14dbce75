package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestLanczosMatchesDenseSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 60
	a := randSym(rng, n)
	wantVals, _, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lanczos(MatVec(a), n, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(res.Values[i]-wantVals[i]) > 1e-6*(1+math.Abs(wantVals[i])) {
			t.Fatalf("lanczos[%d] = %v, dense = %v", i, res.Values[i], wantVals[i])
		}
	}
	// Residual check: ||A v - lambda v|| small.
	for c := 0; c < res.Vectors.Cols(); c++ {
		v := res.Vectors.Col(c)
		av, _ := a.MulVec(v)
		matrix.AXPY(-res.Values[c], v, av)
		if r := matrix.Norm2(av); r > 1e-5*(1+math.Abs(res.Values[c])) {
			t.Fatalf("residual col %d = %g", c, r)
		}
	}
}

// TestSymMulVecIsMatVec: the symmetric view's mat-vec — the operator the
// spectral engine runs Lanczos on — is MatVec of the mirrored matrix
// bit for bit (well inside the 1e-12 a reassociation would allow), on
// packed and on full storage, and so is every Lanczos result built on
// it.
func TestSymMulVecIsMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 3, 63, 64, 65, 257} {
		a := randSym(rng, n)
		packed := make([]float64, 0, matrix.PackedLen(n))
		for i := 0; i < n; i++ {
			packed = append(packed, a.Row(i)[i:]...)
		}
		p, err := matrix.NewPackedSym(n, packed)
		if err != nil {
			t.Fatal(err)
		}
		full, err := matrix.UpperSym(a)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		MatVec(a)(want, x)
		for _, op := range []Op{p.MulVec, full.MulVec} {
			got := make([]float64, n)
			for i := range got {
				got[i] = math.NaN() // dst is overwritten, not accumulated into
			}
			op(got, x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d: y[%d] = %v, MatVec %v", n, i, got[i], want[i])
				}
			}
		}
		k := min(4, n)
		ref, err := Lanczos(MatVec(a), n, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Lanczos(p.MulVec, n, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != ref.Iterations {
			t.Fatalf("n=%d: %d Lanczos steps, MatVec took %d", n, got.Iterations, ref.Iterations)
		}
		for i := range ref.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(ref.Values[i]) {
				t.Fatalf("n=%d: eigenvalue %d = %v, MatVec %v", n, i, got.Values[i], ref.Values[i])
			}
		}
		if !matrix.Equal(got.Vectors, ref.Vectors, 0) {
			t.Fatalf("n=%d: Ritz vectors differ", n)
		}
	}
}

func TestLanczosInvalidArgs(t *testing.T) {
	if _, err := Lanczos(MatVec(matrix.Identity(2)), 2, 0, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Lanczos(MatVec(matrix.Identity(2)), 0, 1, 0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestLanczosIdentityEarlyTermination(t *testing.T) {
	// On the identity the Krylov space has dimension 1: beta vanishes
	// immediately and Lanczos must still return valid (if repeated)
	// eigenvalues without crashing.
	n := 20
	res, err := Lanczos(MatVec(matrix.Identity(n)), n, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) == 0 || math.Abs(res.Values[0]-1) > 1e-10 {
		t.Fatalf("identity eigenvalue = %v", res.Values)
	}
}

func TestLanczosKClampedToN(t *testing.T) {
	a, _ := matrix.FromRows([][]float64{{5, 0}, {0, 2}})
	res, err := Lanczos(MatVec(a), 2, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("len(values) = %d, want 2", len(res.Values))
	}
	if math.Abs(res.Values[0]-5) > 1e-10 || math.Abs(res.Values[1]-2) > 1e-10 {
		t.Fatalf("values = %v", res.Values)
	}
}

func TestLanczosSeedIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := symFromSpectrum(rng, []float64{7, 5, 3, 2, 1, 0.5, 0.2, 0.1})
	r1, err := Lanczos(MatVec(a), 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Lanczos(MatVec(a), 8, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(r1.Values[i]-r2.Values[i]) > 1e-7 {
			t.Fatalf("seed-dependent eigenvalues: %v vs %v", r1.Values, r2.Values)
		}
	}
}

func TestOrthonormalityDiagnostic(t *testing.T) {
	if dev := Orthonormality(matrix.Identity(4)); dev != 0 {
		t.Fatalf("identity deviation = %v", dev)
	}
	bad, _ := matrix.FromRows([][]float64{{1, 1}, {0, 0}})
	if dev := Orthonormality(bad); dev < 0.9 {
		t.Fatalf("expected large deviation, got %v", dev)
	}
}
