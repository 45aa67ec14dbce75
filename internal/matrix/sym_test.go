package matrix

import (
	"math"
	"math/rand"
	"testing"
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

// TestSymRowSumsMatchesRowSums: the view's degrees are RowSums of the
// mirrored matrix bit for bit, over either storage.
func TestSymRowSumsMatchesRowSums(t *testing.T) {
	for _, n := range symSizes {
		m, p := randSym(n, int64(n)+100)
		want, err := RowSums(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*Sym{p, upper(t, m)} {
			sameBits(t, "RowSums", v.RowSums().d, want.d)
		}
	}
}

// TestSymScaleSymMatchesScaleSymInPlace: scaling through the view writes
// the upper triangle Diagonal.ScaleSymInPlace writes, bit for bit, and
// packed and full storage stay equal.
func TestSymScaleSymMatchesScaleSymInPlace(t *testing.T) {
	for _, n := range symSizes {
		m, p := randSym(n, int64(n)+200)
		d, err := RowSums(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.d {
			d.d[i] = math.Abs(d.d[i]) // InvSqrt zeroes non-positive degrees
		}
		dinv := d.InvSqrt()
		want := m.Clone()
		if err := dinv.ScaleSymInPlace(want); err != nil {
			t.Fatal(err)
		}
		full := upper(t, m)
		full.ScaleSym(dinv)
		p.ScaleSym(dinv)
		for i := 0; i < n; i++ {
			sameBits(t, "full ScaleSym", full.Row(i), want.Row(i)[i:])
			sameBits(t, "packed ScaleSym", p.Row(i), want.Row(i)[i:])
		}
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
			v.ScaleSym(v.RowSums().InvSqrt())
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
