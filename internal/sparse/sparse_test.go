package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestNewCSRBasics(t *testing.T) {
	m, err := NewCSR(3, []Triplet{
		{0, 1, 2}, {1, 0, 2}, {2, 2, 5}, {0, 1, 1}, // duplicate sums to 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 || m.NNZ() != 3 {
		t.Fatalf("N=%d NNZ=%d", m.N(), m.NNZ())
	}
	if m.At(0, 1) != 3 || m.At(1, 0) != 2 || m.At(2, 2) != 5 {
		t.Fatalf("entries: %v %v %v", m.At(0, 1), m.At(1, 0), m.At(2, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("absent entry must be 0")
	}
	if m.Bytes() != 24 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(-1, nil); err == nil {
		t.Fatal("expected error for negative n")
	}
	if _, err := NewCSR(2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-range row")
	}
	if _, err := NewCSR(2, []Triplet{{0, -1, 1}}); err == nil {
		t.Fatal("expected error for out-of-range col")
	}
}

func TestNewCSRDropsZeros(t *testing.T) {
	m, err := NewCSR(2, []Triplet{{0, 0, 1}, {0, 0, -1}, {1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (cancelled entry dropped)", m.NNZ())
	}
}

func TestSymmetrized(t *testing.T) {
	m, err := Symmetrized(3, []Triplet{{0, 1, 0.5}, {1, 0, 0.9}, {2, 0, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	// (0,1)/(1,0): keep the larger magnitude 0.9 on both sides.
	if m.At(0, 1) != 0.9 || m.At(1, 0) != 0.9 {
		t.Fatalf("symmetrization: %v %v", m.At(0, 1), m.At(1, 0))
	}
	if m.At(0, 2) != 0.2 || m.At(2, 0) != 0.2 {
		t.Fatal("missing mirrored entry")
	}
	if !m.IsSymmetric(0) {
		t.Fatal("must be symmetric")
	}
	if _, err := Symmetrized(1, []Triplet{{0, 5, 1}}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20
	var entries []Triplet
	for i := 0; i < 60; i++ {
		entries = append(entries, Triplet{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
	}
	m, err := NewCSR(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	if err := m.MulVec(got, x); err != nil {
		t.Fatal(err)
	}
	want, err := m.Dense().MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if err := m.MulVec(make([]float64, 3), x); err == nil {
		t.Fatal("expected length error")
	}
}

// TestRowSumsAndScaleSym: the degrees of a small matrix, and ScaleSym
// rewriting every stored entry in place to exactly v·(d_i·d_j) on a
// random pattern.
func TestRowSumsAndScaleSym(t *testing.T) {
	m, err := NewCSR(2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 2 {
		t.Fatalf("RowSums = %v", rs)
	}
	if err := m.ScaleSym([]float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2*2*3 || m.At(0, 0) != 1*2*2 {
		t.Fatalf("ScaleSym: %v %v", m.At(0, 1), m.At(0, 0))
	}
	if err := m.ScaleSym([]float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

// TestScaleSymInPlaceMatchesScaleSym: the CSR's in-place scale writes
// v·(d_i·d_j) on a random pattern, and on a symmetric graph it agrees
// bit for bit with matrix.Sym.ScaleSym over the same matrix, so the
// sparse and packed normalized Laplacians are one computation.
func TestScaleSymInPlaceMatchesScaleSym(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 16
	var entries []Triplet
	for i := 0; i < 40; i++ {
		entries = append(entries, Triplet{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
	}
	r, err := NewCSR(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Dense()
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.Float64() + 0.5
	}
	if err := r.ScaleSym(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got := r.At(i, j); got != want.At(i, j)*(d[i]*d[j]) {
				t.Fatalf("(%d,%d): %v, want %v", i, j, got, want.At(i, j)*(d[i]*d[j]))
			}
		}
	}

	g, err := Symmetrized(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	v, err := matrix.UpperSym(g.Dense())
	if err != nil {
		t.Fatal(err)
	}
	deg := matrix.InvSqrt(g.RowSums())
	v.ScaleSym(deg)
	if err := g.ScaleSym(deg); err != nil {
		t.Fatal(err)
	}
	dense := v.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := g.At(i, j), dense.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("(%d,%d): CSR %v, Sym %v (bits differ)", i, j, got, want)
			}
		}
	}
	if err := g.ScaleSym(deg[1:]); err == nil {
		t.Fatal("expected length error")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m, _ := NewCSR(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(1, 0)
}

// Property: CSR round-trips through Dense.
func TestPropDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		var entries []Triplet
		for i := 0; i < rng.Intn(40); i++ {
			entries = append(entries, Triplet{rng.Intn(n), rng.Intn(n), float64(1 + rng.Intn(9))})
		}
		m, err := NewCSR(n, entries)
		if err != nil {
			return false
		}
		d := m.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetrized matrices have symmetric MulVec quadratic forms:
// x^T M y == y^T M x.
func TestPropSymmetrizedQuadraticForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		var entries []Triplet
		for i := 0; i < rng.Intn(30); i++ {
			entries = append(entries, Triplet{rng.Intn(n), rng.Intn(n), rng.Float64()})
		}
		m, err := Symmetrized(n, entries)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		mx := make([]float64, n)
		my := make([]float64, n)
		if m.MulVec(mx, x) != nil || m.MulVec(my, y) != nil {
			return false
		}
		return math.Abs(matrix.Dot(y, mx)-matrix.Dot(x, my)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCSRFromRaw(t *testing.T) {
	rowPtr := []int{0, 2, 2, 3}
	cols := []int{0, 2, 1}
	vals := []float64{1, 2, 3}
	m, err := NewCSRFromRaw(3, rowPtr, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(2, 1) != 3 || m.NNZ() != 3 {
		t.Fatalf("entries: %v %v %v nnz=%d", m.At(0, 0), m.At(0, 2), m.At(2, 1), m.NNZ())
	}

	bad := []struct {
		name   string
		n      int
		rowPtr []int
		cols   []int
		vals   []float64
	}{
		{"negative n", -1, nil, nil, nil},
		{"short rowPtr", 3, []int{0, 2, 3}, cols, vals},
		{"rowPtr[0] != 0", 3, []int{1, 2, 2, 3}, cols, vals},
		{"rowPtr[n] != nnz", 3, []int{0, 2, 2, 2}, cols, vals},
		{"cols/vals mismatch", 3, rowPtr, cols, []float64{1, 2}},
		{"non-monotone rowPtr", 3, []int{0, 3, 2, 3}, cols, vals},
		{"col out of range", 3, rowPtr, []int{0, 3, 1}, vals},
		{"cols not ascending", 3, rowPtr, []int{2, 0, 1}, vals},
		{"duplicate col", 3, rowPtr, []int{0, 0, 1}, vals},
	}
	for _, tc := range bad {
		if _, err := NewCSRFromRaw(tc.n, tc.rowPtr, tc.cols, tc.vals); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// TestMulVecParallelDeterministic builds a matrix large enough to cross
// mulVecParallelCutoff and checks the parallel product is bitwise equal
// to the serial row sweep — the property the Lanczos determinism
// argument needs from this operator.
func TestMulVecParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2 * mulVecBlockRows // several blocks
	perRow := (mulVecParallelCutoff / n) + 2
	rowPtr := make([]int, n+1)
	var cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		for len(seen) < perRow {
			seen[rng.Intn(n)] = true
		}
		row := make([]int, 0, perRow)
		for c := range seen {
			row = append(row, c)
		}
		sort.Ints(row)
		for _, c := range row {
			cols = append(cols, c)
			vals = append(vals, rng.NormFloat64())
		}
		rowPtr[i+1] = len(cols)
	}
	m, err := NewCSRFromRaw(n, rowPtr, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() < mulVecParallelCutoff {
		t.Fatalf("test matrix too sparse: nnz=%d", m.NNZ())
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	m.mulVecRange(want, x, 0, n)
	for trial := 0; trial < 4; trial++ {
		got := make([]float64, n)
		if err := m.MulVec(got, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: MulVec[%d] = %v, serial %v (must be bitwise equal)",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestFill(t *testing.T) {
	m, err := NewCSR(4, []Triplet{{0, 0, 1}, {1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Fill(); got != 2.0/16.0 {
		t.Fatalf("Fill = %v", got)
	}
	empty, _ := NewCSR(0, nil)
	if empty.Fill() != 0 {
		t.Fatal("empty fill must be 0")
	}
}
