package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// symSizes cross the four-row tile and its one-, two- and three-row
// tails, and the 64-row block edge of the Gram engine.
var symSizes = []int{1, 2, 3, 63, 64, 65, 257}

// randSym returns an exactly symmetric n x n matrix whose entries span
// several magnitudes and both signs, so any change of summation order
// shows in the low bits, and its packed view over a copy of the upper
// triangle.
func randSym(n int, seed int64) (*Dense, *Sym) {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(n, n)
	packed := make([]float64, 0, PackedLen(n))
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64() * math.Exp(4*rng.Float64()-2)
			m.Set(i, j, v)
			m.Set(j, i, v)
			packed = append(packed, v)
		}
	}
	p, err := NewPackedSym(n, packed)
	if err != nil {
		panic(err)
	}
	return m, p
}

func upper(t *testing.T, m *Dense) *Sym {
	t.Helper()
	v, err := UpperSym(m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bits differ)", what, i, got[i], want[i])
		}
	}
}

// rowSums and scaleSymInPlace are the plain loops over a full matrix
// that the view's RowSums and ScaleSym must reproduce bit for bit: each
// row summed in ascending column order, and s_ij·(d_i·d_j).
func rowSums(m *Dense) []float64 {
	d := make([]float64, m.Rows())
	for i := range d {
		for _, v := range m.Row(i) {
			d[i] += v
		}
	}
	return d
}

func scaleSymInPlace(m *Dense, d []float64) {
	for i := range d {
		row := m.Row(i)
		for j := range row {
			row[j] *= d[i] * d[j]
		}
	}
}

func TestRowSums(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {2, 5}})
	if d := upper(t, m).RowSums(); len(d) != 2 || d[0] != 3 || d[1] != 7 {
		t.Fatalf("RowSums = %v", d)
	}
}

// TestSymRowSumsMatchesRowSums: the view's degrees are the row sums of
// the mirrored matrix bit for bit, over either storage.
func TestSymRowSumsMatchesRowSums(t *testing.T) {
	for _, n := range symSizes {
		m, p := randSym(n, int64(n)+100)
		want := rowSums(m)
		for _, v := range []*Sym{p, upper(t, m)} {
			sameBits(t, "RowSums", v.RowSums(), want)
		}
	}
}

// TestSymScaleSymMatchesScaleSymInPlace: scaling through the view writes
// the upper triangle the plain in-place loop writes, bit for bit, and
// packed and full storage stay equal.
func TestSymScaleSymMatchesScaleSymInPlace(t *testing.T) {
	for _, n := range symSizes {
		m, p := randSym(n, int64(n)+200)
		d := rowSums(m)
		for i := range d {
			d[i] = math.Abs(d[i]) // InvSqrt zeroes non-positive degrees
		}
		dinv := InvSqrt(d)
		want := m.Clone()
		scaleSymInPlace(want, dinv)
		full := upper(t, m)
		full.ScaleSym(dinv)
		p.ScaleSym(dinv)
		for i := 0; i < n; i++ {
			sameBits(t, "full ScaleSym", full.Row(i), want.Row(i)[i:])
			sameBits(t, "packed ScaleSym", p.Row(i), want.Row(i)[i:])
		}
	}
}

// TestScaleSymMatchesDenseProduct: ScaleSym is D·S·D for D = diag(d),
// and rejects a d of the wrong length.
func TestScaleSymMatchesDenseProduct(t *testing.T) {
	s, _ := randSym(4, 7)
	d := []float64{1, 2, 3, 4}
	dm := NewDense(4, 4)
	for i, v := range d {
		dm.Set(i, i, v)
	}
	ds, _ := Mul(dm, s)
	want, _ := Mul(ds, dm)
	v := upper(t, s)
	v.ScaleSym(d)
	if got := v.Dense(); !Equal(got, want, 1e-12) {
		t.Fatalf("ScaleSym mismatch:\n%v\n%v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a short d")
		}
	}()
	v.ScaleSym(d[:3])
}

// TestScaleSymDoesNotMutateInput: ScaleSym reads its degree vector and
// never writes it, and over a full matrix it writes only the viewed
// upper triangle — the lower triangle keeps its bits.
func TestScaleSymDoesNotMutateInput(t *testing.T) {
	for _, n := range symSizes {
		m, p := randSym(n, int64(n)+400)
		before := m.Clone()
		d := InvSqrt(p.RowSums())
		dBefore := append([]float64(nil), d...)
		upper(t, m).ScaleSym(d)
		p.ScaleSym(d)
		sameBits(t, "d", d, dBefore)
		for i := 0; i < n; i++ {
			sameBits(t, "lower triangle", m.Row(i)[:i], before.Row(i)[:i])
		}
	}
}

// TestScaleSymInPlaceMatchesScaleSym: scaling a full matrix in place
// through its view and scaling a packed copy give the same mirrored
// matrix bit for bit, including the zero rows and columns a
// non-positive degree leaves; both storages reject a d of the wrong
// length.
func TestScaleSymInPlaceMatchesScaleSym(t *testing.T) {
	for _, n := range symSizes {
		m, p := randSym(n, int64(n)+500)
		d := p.RowSums()
		d[n/2] = 0 // InvSqrt keeps it 0: an isolated row
		d = InvSqrt(d)
		full := upper(t, m)
		full.ScaleSym(d)
		p.ScaleSym(d)
		got := p.Dense()
		sameBits(t, "packed vs in place", got.Data(), full.Dense().Data())
		for j := 0; j < n; j++ {
			if got.At(n/2, j) != 0 || got.At(j, n/2) != 0 {
				t.Fatalf("n=%d: isolated row %d has entry %v at column %d", n, n/2, got.At(n/2, j), j)
			}
		}
	}
	_, packed := randSym(3, 1)
	for _, v := range []*Sym{upper(t, NewDense(3, 3)), packed} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for a short d")
				}
			}()
			v.ScaleSym(make([]float64, 2))
		}()
	}
}

// Property: the normalized Laplacian D^{-1/2} S D^{-1/2} of a symmetric
// matrix with positive entries is symmetric, with every entry in
// [-1, 1] (its largest eigenvalue is 1).
func TestPropNormalizedLaplacianSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		s := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.Float64() + 0.01 // strictly positive similarities
				s.Set(i, j, v)
				s.Set(j, i, v)
			}
		}
		v, err := UpperSym(s)
		if err != nil {
			return false
		}
		v.ScaleSym(InvSqrt(v.RowSums()))
		l := v.Dense()
		return l.IsSymmetric(1e-9) && l.MaxAbs() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSymPackedMatchesFull runs the normalization and a mat-vec chain on
// both storages of one matrix: every result is bit-equal, and Dense
// mirrors both into the same symmetric matrix.
func TestSymPackedMatchesFull(t *testing.T) {
	for _, n := range symSizes {
		m, p := randSym(n, int64(n)+300)
		full := upper(t, m)
		for _, v := range []*Sym{p, full} {
			v.ScaleSym(InvSqrt(v.RowSums()))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		yp, yf := make([]float64, n), make([]float64, n)
		for step := 0; step < 3; step++ {
			p.MulVec(yp, x)
			full.MulVec(yf, x)
			sameBits(t, "MulVec", yp, yf)
			copy(x, yp)
		}
		dp, df := p.Dense(), full.Dense()
		if df != m {
			t.Fatal("Dense of a full view must be the viewed matrix")
		}
		sameBits(t, "Dense", dp.Data(), df.Data())
		if !dp.IsSymmetric(0) {
			t.Fatalf("n=%d: Dense not symmetric", n)
		}
	}
}

func TestSymValidates(t *testing.T) {
	if _, err := NewPackedSym(3, make([]float64, 5)); err == nil {
		t.Fatal("expected error for a short packed triangle")
	}
	if _, err := UpperSym(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for a non-square matrix")
	}
	if PackedLen(0) != 0 || PackedLen(1) != 1 || PackedLen(4) != 10 {
		t.Fatal("PackedLen")
	}
}

// BenchmarkSymMulVec is one Lanczos mat-vec on the packed Laplacian of
// mix-inproc's largest bucket (3 086 rows), reporting the bytes the
// operand holds.
func BenchmarkSymMulVec(b *testing.B) {
	const n = 3086
	_, p := randSym(n, 1)
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulVec(y, x)
	}
	b.ReportMetric(float64(8*PackedLen(n)), "held-B/op")
}
