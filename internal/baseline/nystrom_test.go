package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

// scalarChainDot is the single ascending-chain dot the recognized
// kernel fast path accumulates in, so the scalar reference below lands
// on bitwise-identical rounding.
func scalarChainDot(x, y []float64) float64 {
	var s float64
	for t := range x {
		s += x[t] * y[t]
	}
	return s
}

// scalarNystBlocks is the per-pair reference construction of the
// Nyström blocks: the factorized Gaussian form over single-chain dots,
// one scalar Eval per entry, no blocking and no parallelism.
func scalarNystBlocks(points *matrix.Dense, landmarks []int, sigma float64) (w, c *matrix.Dense) {
	inv := 1 / (2 * sigma * sigma)
	m := len(landmarks)
	n := points.Rows()
	lmRows := make([][]float64, m)
	sqlm := make([]float64, m)
	for a, idx := range landmarks {
		lmRows[a] = points.Row(idx)
		sqlm[a] = scalarChainDot(lmRows[a], lmRows[a])
	}
	eval := func(x []float64, sqx float64, b int) float64 {
		d2 := sqx + sqlm[b] - 2*scalarChainDot(x, lmRows[b])
		if d2 < 0 {
			d2 = 0
		}
		return math.Exp(-d2 * inv)
	}
	w = matrix.NewDense(m, m)
	for a := 0; a < m; a++ {
		row := w.Row(a)
		for b := 0; b < m; b++ {
			row[b] = eval(lmRows[a], sqlm[a], b)
		}
	}
	c = matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		xi := points.Row(i)
		sqx := scalarChainDot(xi, xi)
		row := c.Row(i)
		for b := 0; b < m; b++ {
			row[b] = eval(xi, sqx, b)
		}
	}
	return w, c
}

// TestNystKernelBlocksMatchScalar pins the W/C blocks NYST's solve
// builds — kernel.CrossGramInto over the landmark rows NYST gathers,
// the two calls spectral.ClusterLandmarkRows makes — byte-for-byte
// against the scalar per-pair reference, with n above the fast path's
// parallel cutoff so the worker-pool path is the one under test, and
// checks the structural invariants the eigensolve relies on: unit
// diagonal, unit landmark entries in C, and bitwise symmetry of W.
func TestNystKernelBlocksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, d, m = 300, 9, 41
	points := matrix.NewDense(n, d)
	data := points.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	landmarks := rng.Perm(n)[:m]
	lm := matrix.NewDense(m, d)
	matrix.GatherRows(lm.Data(), points, landmarks)
	const sigma = 1.3
	kf := kernel.NewGaussian(sigma)
	w, c := matrix.NewDense(m, m), matrix.NewDense(n, m)
	if err := kernel.CrossGramInto(w, lm, lm, kf); err != nil {
		t.Fatal(err)
	}
	if err := kernel.CrossGramInto(c, points, lm, kf); err != nil {
		t.Fatal(err)
	}
	refW, refC := scalarNystBlocks(points, landmarks, sigma)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			if w.At(a, b) != refW.At(a, b) {
				t.Fatalf("W[%d,%d] = %x, scalar %x", a, b, w.At(a, b), refW.At(a, b))
			}
			if w.At(a, b) != w.At(b, a) {
				t.Fatalf("W not bitwise symmetric at (%d,%d)", a, b)
			}
		}
		if w.At(a, a) != 1 {
			t.Fatalf("W diagonal [%d] = %v", a, w.At(a, a))
		}
	}
	for i := 0; i < n; i++ {
		for b := 0; b < m; b++ {
			if c.At(i, b) != refC.At(i, b) {
				t.Fatalf("C[%d,%d] = %x, scalar %x", i, b, c.At(i, b), refC.At(i, b))
			}
		}
	}
	for b, idx := range landmarks {
		if c.At(idx, b) != 1 {
			t.Fatalf("C landmark entry [%d,%d] = %v", idx, b, c.At(idx, b))
		}
	}
}
