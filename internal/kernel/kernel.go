// Package kernel builds Gram (similarity) matrices: the full O(N^2)
// matrix used by the SC baseline and the paper's per-bucket approximated
// matrices (DASC step 3). The Gaussian RBF of Eq. 1 is the default
// kernel; the bandwidth can be fixed or derived from the data by the
// median-distance heuristic.
//
// All Gram construction funnels through the one block loop in fast.go:
// the kernel the engine recognizes (NewGaussian) is computed from
// precomputed row norms and blocked dot products, parallel over row
// strips; closure kernels (Func) remain fully supported through the
// generic per-pair fallback.
package kernel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// Func is a positive-semidefinite similarity kernel over point pairs.
// A Func is also a Kernel (see fast.go) and always takes the engine's
// generic path; use NewGaussian for the blocked fast path.
type Func func(x, y []float64) float64

// Gaussian returns the RBF kernel of Eq. 1 with bandwidth sigma as a
// plain Func: exp(-||x-y||^2 / (2 sigma^2)). It panics if sigma <= 0.
// Hot paths should prefer NewGaussian, whose result the Gram engine
// recognizes.
func Gaussian(sigma float64) Func {
	return NewGaussian(sigma).Eval
}

// MedianSigma estimates a bandwidth as the median pairwise distance of
// a random sample of the data — the standard heuristic when the paper's
// fixed sigma is not supplied. sampleSize caps the pairs examined.
func MedianSigma(points *matrix.Dense, sampleSize int, seed int64) float64 {
	n := points.Rows()
	if n < 2 {
		return 1
	}
	if sampleSize <= 0 {
		sampleSize = 256
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := sampleSize
	if max := n * (n - 1) / 2; pairs > max {
		pairs = max
	}
	// Each sampled distance is three dot products of the pair's rows,
	// ||x-y||^2 = ||x||^2 + ||y||^2 - 2 x.y, so no O(N) norm pass is
	// needed for a few hundred pairs. They are summed in dot4's four
	// lanes, not the engine's one chain: sigma scales every kernel value
	// downstream, and the paper's artifacts are pinned to these bits.
	dists := make([]float64, 0, pairs)
	for len(dists) < pairs {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		x, y := points.Row(i), points.Row(j)
		d2 := dot4(x, x) + dot4(y, y) - 2*dot4(x, y)
		if d2 < 0 {
			d2 = 0
		}
		dists = append(dists, math.Sqrt(d2))
	}
	med := matrix.SelectKth(dists, len(dists)/2)
	if med <= 0 {
		return 1
	}
	return med
}

// dot4 is the inner product of x and y accumulated in four lanes, the
// order MedianSigma's sampled distances have always been summed in. It
// panics if the lengths differ.
func dot4(x, y []float64) float64 {
	if len(x) != len(y) {
		matrix.Panicf("kernel: dot4 of lengths %d and %d", len(x), len(y))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// Gram computes the full N x N similarity matrix with zero diagonal,
// matching the paper's reducer (Algorithm 2 sets S[i,i] = 0, the
// standard spectral-clustering convention of Ng et al.). The Gaussian
// takes the blocked fast path; all kernels are computed in
// parallel over row strips of the upper triangle for large N, each
// value also stored at its mirror.
func Gram(points *matrix.Dense, k Kernel) *matrix.Dense {
	n := points.Rows()
	s := matrix.NewDense(n, n)
	if n == 0 {
		return s
	}
	gramInto(s, points, nil, k)
	return s
}

// GramWithDiagonal computes the full similarity matrix including the
// self-similarities k(x,x) on the diagonal. Spectral clustering uses
// the zero-diagonal Gram; kernel machines like SVM and kernel PCA need
// the true diagonal (SMO's curvature term 2K(i,j)-K(i,i)-K(j,j) is
// never negative without it).
func GramWithDiagonal(points *matrix.Dense, k Kernel) *matrix.Dense {
	s := Gram(points, k)
	for i := 0; i < points.Rows(); i++ {
		s.Set(i, i, k.Eval(points.Row(i), points.Row(i)))
	}
	return s
}

// SubGram computes the similarity matrix restricted to the points whose
// dataset rows are listed in indices — one DASC bucket's portion of the
// approximated Gram matrix. Large buckets are computed in parallel over
// row strips; the Gaussian additionally takes the blocked fast path
// over rows gathered into contiguous scratch.
func SubGram(points *matrix.Dense, indices []int, k Kernel) *matrix.Dense {
	n := len(indices)
	s := matrix.NewDense(n, n)
	gramInto(s, points, indices, k)
	return s
}

// SubGramPacked builds the sub-Gram of the listed rows as its packed
// upper triangle inside *scratch (grown as needed and reused across
// calls): n(n+1)/2 float64s, i.e. GramBytes(n) + 4n bytes — what the
// paper's Eq. 12 reports, where the n x n forms above hold twice that.
// The diagonal is zero. It is the solve engine's builder; the returned
// view aliases *scratch.
func SubGramPacked(points *matrix.Dense, indices []int, k Kernel, scratch *[]float64) (*matrix.Sym, error) {
	ni := len(indices)
	need := matrix.PackedLen(ni)
	if cap(*scratch) < need {
		*scratch = make([]float64, need)
	}
	sub, err := matrix.NewPackedSym(ni, (*scratch)[:need])
	if err != nil {
		return nil, err
	}
	symFill(sub, points, indices, k)
	return sub, nil
}

// CrossGramInto fills dst (a.Rows() × b.Rows()) with the kernel value of
// every cross pair k(a_i, b_j) — the Nyström algebra's landmark block W
// (a against itself) and cross block C (spectral.ClusterLandmarkRows,
// run by the in-bucket landmark solve and the NYST baseline). The
// diagonal is NOT special-cased: a self pair yields k(x,x), exactly 1
// for the Gaussian, and a block of a matrix against itself is bitwise
// symmetric, which the Nyström blocks require.
func CrossGramInto(dst *matrix.Dense, a, b *matrix.Dense, k Kernel) error {
	ra, rb := a.Rows(), b.Rows()
	if dst.Rows() != ra || dst.Cols() != rb {
		return fmt.Errorf("kernel: cross block %dx%d for %dx%d rows", dst.Rows(), dst.Cols(), ra, rb)
	}
	if ra == 0 || rb == 0 {
		return nil
	}
	if a.Cols() != b.Cols() {
		return fmt.Errorf("kernel: cross operands have %d and %d columns", a.Cols(), b.Cols())
	}
	kind, _ := recognize(k)
	oa, ob := newOperand(a, nil, kind), newOperand(b, nil, kind)
	defer oa.release()
	defer ob.release()
	f := gramFill{k: k, a: oa, b: ob, tile: blockRows, d2max: math.Inf(1), out: rectOut{dst}}
	f.run()
	return nil
}

// GramBytes returns the paper's Eq. 12 storage figure for an N x N Gram
// matrix: 4 bytes per entry. It is what the solve engine holds, within
// 4·N: SubGramPacked keeps the float64 upper triangle, N(N+1)/2 entries,
// GramBytes(N) + 4N bytes. The n x n forms (Gram, SubGram,
// SubGramPooled) hold twice it.
func GramBytes(n int) int64 { return 4 * int64(n) * int64(n) }
