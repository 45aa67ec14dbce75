// Package kernel builds Gram (similarity) matrices: the full O(N^2)
// matrix used by the SC baseline and the paper's per-bucket approximated
// matrices (DASC step 3). The Gaussian RBF of Eq. 1 is the default
// kernel; the bandwidth can be fixed or derived from the data by the
// median-distance heuristic.
//
// All Gram construction funnels through the blocked compute engine in
// fast.go: the kernel the engine recognizes (NewGaussian) is computed
// from precomputed row norms and unrolled dot products, parallel over
// row blocks; closure kernels (Func) remain fully supported through the
// generic per-pair fallback.
package kernel

import (
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
	// needed for a few hundred pairs.
	dists := make([]float64, 0, pairs)
	for len(dists) < pairs {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		x, y := points.Row(i), points.Row(j)
		d2 := matrix.Dot4(x, x) + matrix.Dot4(y, y) - 2*matrix.Dot4(x, y)
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

// Gram computes the full N x N similarity matrix with zero diagonal,
// matching the paper's reducer (Algorithm 2 sets S[i,i] = 0, the
// standard spectral-clustering convention of Ng et al.). The Gaussian
// takes the blocked fast path; all kernels are computed in
// parallel over block pairs of the upper triangle for large N, each
// value stored at its mirror in the same pass.
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
// row blocks; the Gaussian additionally takes the blocked fast path
// over rows gathered into contiguous scratch.
func SubGram(points *matrix.Dense, indices []int, k Kernel) *matrix.Dense {
	n := len(indices)
	s := matrix.NewDense(n, n)
	SubGramInto(s, points, indices, k)
	return s
}

// SubGramInto computes the sub-Gram of the listed rows into s, which
// must be len(indices) x len(indices). Every entry of s is overwritten
// (diagonal included), so callers can hand in pooled, dirty buffers —
// the per-bucket solve path reuses one backing slice across buckets.
func SubGramInto(s *matrix.Dense, points *matrix.Dense, indices []int, k Kernel) {
	n := len(indices)
	if s.Rows() != n || s.Cols() != n {
		matrix.Panicf("kernel: SubGramInto %dx%d for %d indices", s.Rows(), s.Cols(), n)
	}
	if n == 0 {
		return
	}
	gramInto(s, points, indices, k)
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
	symGramInto(sub, points, indices, k)
	return sub, nil
}

// GramBytes returns the paper's Eq. 12 storage figure for an N x N Gram
// matrix: 4 bytes per entry. It is what the solve engine holds, within
// 4·N: SubGramPacked keeps the float64 upper triangle, N(N+1)/2 entries,
// GramBytes(N) + 4N bytes. The n x n forms (Gram, SubGram,
// SubGramPooled) hold twice it.
func GramBytes(n int) int64 { return 4 * int64(n) * int64(n) }
