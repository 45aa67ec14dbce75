package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matrix"
)

// scalarCrossGaussian is the plain per-pair reference the blocked cross
// engine must match bit for bit: matrix.Dot norms and dots fed through
// the same factorized formula exp(-(‖a‖²+‖b‖²−2·a·b)·inv).
func scalarCrossGaussian(a, b *matrix.Dense, sigma float64) *matrix.Dense {
	inv := 1 / (2 * sigma * sigma)
	out := matrix.NewDense(a.Rows(), b.Rows())
	sqa := make([]float64, a.Rows())
	for i := range sqa {
		sqa[i] = matrix.Dot(a.Row(i), a.Row(i))
	}
	sqb := make([]float64, b.Rows())
	for j := range sqb {
		sqb[j] = matrix.Dot(b.Row(j), b.Row(j))
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			d2 := sqa[i] + sqb[j] - 2*matrix.Dot(a.Row(i), b.Row(j))
			if d2 < 0 {
				d2 = 0
			}
			out.Set(i, j, math.Exp(-d2*inv))
		}
	}
	return out
}

// crossGram runs CrossGramInto into a fresh a.Rows() × b.Rows() block.
func crossGram(a, b *matrix.Dense, k Kernel) (*matrix.Dense, error) {
	dst := matrix.NewDense(a.Rows(), b.Rows())
	if err := CrossGramInto(dst, a, b, k); err != nil {
		return nil, err
	}
	return dst, nil
}

func randDense(rng *rand.Rand, rows, cols int) *matrix.Dense {
	m := matrix.NewDense(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func TestCrossGramMatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shapes := []struct{ ra, rb, d int }{
		{1, 1, 3},
		{5, 9, 7},      // ragged tail in both dims
		{64, 64, 16},   // exact block edges
		{65, 63, 5},    // one over / one under a block
		{130, 77, 12},  // multiple a-blocks
		{257, 201, 33}, // above parallelCutoff: exercises the worker pool
	}
	for _, s := range shapes {
		a := randDense(rng, s.ra, s.d)
		b := randDense(rng, s.rb, s.d)
		want := scalarCrossGaussian(a, b, 1.3)
		got, err := crossGram(a, b, NewGaussian(1.3))
		if err != nil {
			t.Fatalf("CrossGramInto(%dx%d, %dx%d): %v", s.ra, s.d, s.rb, s.d, err)
		}
		gd, wd := got.Data(), want.Data()
		for i := range wd {
			if gd[i] != wd[i] {
				t.Fatalf("shape %+v: entry %d = %v, scalar reference %v", s, i, gd[i], wd[i])
			}
		}
	}
}

func TestCrossGramWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randDense(rng, 300, 9)
	b := randDense(rng, 220, 9)
	k := NewGaussian(0.9)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	serial, err := crossGram(a, b, k)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	parallel, err := crossGram(a, b, k)
	if err != nil {
		t.Fatal(err)
	}
	sd, pd := serial.Data(), parallel.Data()
	for i := range sd {
		if sd[i] != pd[i] {
			t.Fatalf("entry %d differs across worker counts: %v vs %v", i, sd[i], pd[i])
		}
	}
}

func TestCrossGramGaussianAndGenericAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 40, 6)
	b := randDense(rng, 23, 6)

	fast, err := crossGram(a, b, NewGaussian(1.1))
	if err != nil {
		t.Fatal(err)
	}
	// The generic fallback (Func wraps the same math) must agree within
	// float tolerance; it subtracts per pair instead of using cached norms.
	slow, err := crossGram(a, b, Func(NewGaussian(1.1).Eval))
	if err != nil {
		t.Fatal(err)
	}
	fd, sd := fast.Data(), slow.Data()
	for i := range fd {
		if math.Abs(fd[i]-sd[i]) > 1e-12 {
			t.Fatalf("entry %d: fast %v generic %v", i, fd[i], sd[i])
		}
	}
}

// TestCrossGramSelfPairIsOne: a block of a matrix against itself — the
// Nyström landmark block W — has an exactly-one diagonal and is bitwise
// symmetric, which the landmark eigensolve relies on. 257 rows are above
// the parallel cutoff, so the worker pool builds it.
func TestCrossGramSelfPairIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 257
	a := randDense(rng, n, 9)
	g, err := crossGram(a, a, NewGaussian(1.3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if g.At(i, i) != 1 {
			t.Fatalf("diagonal self pair (%d,%d) = %v, want exactly 1", i, i, g.At(i, i))
		}
		for j := 0; j < i; j++ {
			if math.Float64bits(g.At(i, j)) != math.Float64bits(g.At(j, i)) {
				t.Fatalf("W not bitwise symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestCrossGramShapeErrors(t *testing.T) {
	a := matrix.NewDense(3, 4)
	b := matrix.NewDense(2, 5)
	if err := CrossGramInto(matrix.NewDense(3, 2), a, b, NewGaussian(1)); err == nil {
		t.Fatal("mismatched column counts accepted")
	}
	bOK := matrix.NewDense(2, 4)
	if err := CrossGramInto(matrix.NewDense(2, 3), a, bOK, NewGaussian(1)); err == nil {
		t.Fatal("wrong destination shape accepted")
	}
}

// BenchmarkCrossGram fills the Nyström cross block C of the sharded
// mixture's largest landmark solve: 20 471 rows against 40 landmarks,
// d = 16.
func BenchmarkCrossGram(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	rows := randDense(rng, 20471, 16)
	landmarks := randDense(rng, 40, 16)
	dst := matrix.NewDense(rows.Rows(), landmarks.Rows())
	kf := NewGaussian(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CrossGramInto(dst, rows, landmarks, kf); err != nil {
			b.Fatal(err)
		}
	}
}
