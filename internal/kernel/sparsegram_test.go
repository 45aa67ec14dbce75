package kernel

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/matrix"
)

// TestSubGramSparseZeroEpsMatchesDense: at ε=0 the CSR holds every
// off-diagonal entry, so densifying it must reproduce SubGram up to
// the fast path's rounding (the values come from the same DotBlock
// engine; only the strip shapes differ).
func TestSubGramSparseZeroEpsMatchesDense(t *testing.T) {
	pts := randPoints(250, 12, 1) // above parallelCutoff via indices? n=250 > 192
	indices := make([]int, 0, 250)
	for i := 0; i < 250; i++ {
		indices = append(indices, i)
	}
	for _, k := range []Kernel{NewGaussian(2), Func(NewGaussian(2).Eval)} {
		dense := SubGram(pts, indices, k)
		csr, err := SubGramSparse(pts, indices, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if csr.NNZ() != 250*249 {
			t.Fatalf("nnz = %d, want every off-diagonal entry", csr.NNZ())
		}
		got := csr.Dense()
		for i := 0; i < 250; i++ {
			for j := 0; j < 250; j++ {
				if math.Abs(got.At(i, j)-dense.At(i, j)) > 1e-12 {
					t.Fatalf("kernel %T (%d,%d): sparse %v dense %v", k, i, j, got.At(i, j), dense.At(i, j))
				}
			}
		}
	}
}

// TestSubGramSparseThreshold checks the ε cut: every stored entry is
// ≥ ε (Gaussian values are positive), every dropped dense entry < ε,
// and the matrix stays symmetric.
func TestSubGramSparseThreshold(t *testing.T) {
	pts := randPoints(120, 8, 2)
	indices := make([]int, 0, 60)
	for i := 0; i < 120; i += 2 {
		indices = append(indices, i)
	}
	kf := NewGaussian(0.8)
	const eps = 1e-3
	csr, err := SubGramSparse(pts, indices, kf, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !csr.IsSymmetric(0) {
		t.Fatal("thresholded Gram must stay exactly symmetric")
	}
	dense := SubGram(pts, indices, kf)
	n := len(indices)
	kept := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := csr.At(i, j)
			dv := dense.At(i, j)
			if v != 0 {
				kept++
				if v < eps {
					t.Fatalf("(%d,%d): stored %v below eps", i, j, v)
				}
				if math.Abs(v-dv) > 1e-12 {
					t.Fatalf("(%d,%d): stored %v dense %v", i, j, v, dv)
				}
			} else if i != j && dv >= eps*(1+1e-9) {
				t.Fatalf("(%d,%d): dropped but dense %v >= eps", i, j, dv)
			}
		}
	}
	if kept == 0 || kept == n*(n-1) {
		t.Fatalf("threshold not exercised: kept %d of %d", kept, n*(n-1))
	}
	if csr.Fill() >= 1 {
		t.Fatalf("fill %v", csr.Fill())
	}
}

// TestSubGramSparseGenericKernel routes an unrecognized kernel down the
// per-pair fallback and checks the magnitude threshold (cosine-like
// kernels emit negative similarities that must survive by |v|).
func TestSubGramSparseGenericKernel(t *testing.T) {
	pts := randPoints(40, 6, 3)
	indices := make([]int, 40)
	for i := range indices {
		indices[i] = i
	}
	dot := Func(func(x, y []float64) float64 { return matrix.Dot(x, y) })
	const eps = 0.5
	csr, err := SubGramSparse(pts, indices, dot, eps)
	if err != nil {
		t.Fatal(err)
	}
	negatives := 0
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			v := csr.At(i, j)
			want := matrix.Dot(pts.Row(i), pts.Row(j))
			switch {
			case i == j:
				if v != 0 {
					t.Fatal("diagonal must stay zero")
				}
			case math.Abs(want) >= eps:
				if v != want {
					t.Fatalf("(%d,%d) = %v, want %v", i, j, v, want)
				}
				if v < 0 {
					negatives++
				}
			default:
				if v != 0 {
					t.Fatalf("(%d,%d) = %v, want dropped (|%v| < eps)", i, j, v, want)
				}
			}
		}
	}
	if negatives == 0 {
		t.Fatal("expected surviving negative entries under the magnitude threshold")
	}
}

// TestSubGramSparseWorkerDeterminism: the emitted CSR must be bitwise
// identical at GOMAXPROCS=1 and the ambient worker count.
func TestSubGramSparseWorkerDeterminism(t *testing.T) {
	pts := randPoints(400, 10, 4)
	indices := make([]int, 400)
	for i := range indices {
		indices[i] = i
	}
	kf := NewGaussian(1.2)
	base, err := SubGramSparse(pts, indices, kf, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := SubGramSparse(pts, indices, kf, 1e-2)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if base.NNZ() != serial.NNZ() {
		t.Fatalf("nnz %d vs %d", base.NNZ(), serial.NNZ())
	}
	for i := 0; i < 400; i++ {
		for j := 0; j < 400; j++ {
			if base.At(i, j) != serial.At(i, j) {
				t.Fatalf("(%d,%d): parallel %v serial %v", i, j, base.At(i, j), serial.At(i, j))
			}
		}
	}
}

func TestSubGramSparseValidation(t *testing.T) {
	pts := randPoints(4, 2, 5)
	if _, err := SubGramSparse(pts, []int{0, 1}, NewGaussian(1), -0.1); err == nil {
		t.Fatal("expected error for negative eps")
	}
	if _, err := SubGramSparse(pts, []int{0, 1}, NewGaussian(1), math.NaN()); err == nil {
		t.Fatal("expected error for NaN eps")
	}
	empty, err := SubGramSparse(pts, nil, NewGaussian(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	// nil indices means all rows, mirroring SubGramInto's contract.
	if empty.N() != 4 {
		t.Fatalf("nil indices: N = %d", empty.N())
	}
	none, err := SubGramSparse(pts, []int{}, NewGaussian(1), 0)
	if err != nil || none.N() != 0 {
		t.Fatalf("empty indices: %v N=%d", err, none.N())
	}
}

func TestGramSparseMatchesGram(t *testing.T) {
	pts := randPoints(64, 5, 6)
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	kf := NewGaussian(1)
	csr, err := SubGramSparse(pts, all, kf, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense := Gram(pts, kf)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if math.Abs(csr.At(i, j)-dense.At(i, j)) > 1e-12 {
				t.Fatalf("(%d,%d): %v vs %v", i, j, csr.At(i, j), dense.At(i, j))
			}
		}
	}
}

func TestSubGramPooledMatchesSubGram(t *testing.T) {
	pts := randPoints(30, 4, 7)
	indices := []int{1, 5, 9, 13, 21, 29}
	kf := NewGaussian(1.5)
	var scratch []float64
	sub, err := SubGramPooled(pts, indices, kf, &scratch, false)
	if err != nil {
		t.Fatal(err)
	}
	want := SubGram(pts, indices, kf)
	for i := 0; i < len(indices); i++ {
		for j := 0; j < len(indices); j++ {
			if sub.At(i, j) != want.At(i, j) {
				t.Fatalf("(%d,%d): pooled %v direct %v", i, j, sub.At(i, j), want.At(i, j))
			}
		}
	}
	withDiag, err := SubGramPooled(pts, indices, kf, &scratch, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range indices {
		want := kf.Eval(pts.Row(idx), pts.Row(idx))
		if withDiag.At(i, i) != want {
			t.Fatalf("diag %d = %v, want %v", i, withDiag.At(i, i), want)
		}
	}
}
