package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseDataValidates(t *testing.T) {
	if _, err := NewDenseData(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for mismatched data length")
	}
	m, err := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 6 {
		t.Fatalf("unexpected matrix %v", m)
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows() != 0 || empty.Cols() != 0 {
		t.Fatalf("empty FromRows = %v, %v", empty, err)
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if m.At(0, 1) != 7.5 {
		t.Fatalf("At(0,1) = %v, want 7.5", m.At(0, 1))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestRowAliases(t *testing.T) {
	m := NewDense(2, 3)
	r := m.Row(1)
	r[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row must alias storage")
	}
}

func TestColCopies(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v", c)
	}
	c[0] = 99
	if m.At(0, 1) == 99 {
		t.Fatal("Col must copy")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T dims %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 5, 5)
	id := Identity(5)
	left, _ := Mul(id, a)
	right, _ := Mul(a, id)
	if !Equal(left, a, 1e-12) || !Equal(right, a, 1e-12) {
		t.Fatal("identity product must equal operand")
	}
}

func TestAddSub(t *testing.T) {
	s, _ := FromRows([][]float64{{5, 5}, {5, 5}})
	b, _ := FromRows([][]float64{{4, 3}, {2, 1}})
	d, err := Sub(s, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if !Equal(d, want, 0) {
		t.Fatalf("Sub = %v, want %v", d, want)
	}
	if _, err := Sub(s, NewDense(1, 1)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, -2}})
	a.Scale(-3)
	if a.At(0, 0) != -3 || a.At(0, 1) != 6 {
		t.Fatalf("Scale = %v", a)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestFrobenius(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 4}})
	if got := a.Frobenius(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius = %v, want 5", got)
	}
	if NewDense(0, 0).Frobenius() != 0 {
		t.Fatal("empty Frobenius must be 0")
	}
	// Overflow resistance: entries near sqrt(MaxFloat64).
	big := 1e200
	b, _ := FromRows([][]float64{{big, big}})
	if got := b.Frobenius(); math.IsInf(got, 0) || math.Abs(got-big*math.Sqrt2) > big*1e-10 {
		t.Fatalf("Frobenius overflowed: %v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	a, _ := FromRows([][]float64{{1, -7}, {3, 2}})
	if a.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestIsSymmetric(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}})
	if !a.IsSymmetric(0) {
		t.Fatal("expected symmetric")
	}
	a.Set(0, 1, 2.1)
	if a.IsSymmetric(0.01) {
		t.Fatal("expected asymmetric beyond tol")
	}
	if NewDense(2, 3).IsSymmetric(1) {
		t.Fatal("non-square cannot be symmetric")
	}
}

func TestCloneIndependent(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) == 9 {
		t.Fatal("Clone must not alias")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := FromRows([][]float64{{1, 2}})
	if s := small.String(); s == "" {
		t.Fatal("empty string for small matrix")
	}
	large := NewDense(20, 20)
	if s := large.String(); s != "Dense(20x20)" {
		t.Fatalf("large String = %q", s)
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

// Property: (A*B)^T == B^T * A^T.
func TestPropTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomDense(rng, n, m)
		b := randomDense(rng, m, p)
		ab, _ := Mul(a, b)
		left := ab.T()
		right, _ := Mul(b.T(), a.T())
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is invariant under transpose.
func TestPropFrobeniusTranspose(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDense(r, 1+r.Intn(8), 1+r.Intn(8))
		return math.Abs(a.Frobenius()-a.T().Frobenius()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over subtraction.
func TestPropDistributive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a := randomDense(r, n, n)
		b := randomDense(r, n, n)
		c := randomDense(r, n, n)
		bc, _ := Sub(b, c)
		left, _ := Mul(a, bc)
		ab, _ := Mul(a, b)
		ac, _ := Mul(a, c)
		right, _ := Sub(ab, ac)
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
