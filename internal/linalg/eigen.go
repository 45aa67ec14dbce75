// Package linalg implements the eigendecomposition machinery the paper
// relies on: Householder reduction of a symmetric matrix to tridiagonal
// form, an implicit-shift QL eigensolver on the tridiagonal form, and a
// Lanczos iteration for large symmetric operators. Together these
// reproduce the paper's §3.2 pipeline
// ("transform L into a symmetric tridiagonal matrix, then apply QR
// decomposition") without any external numeric library.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/matrix"
)

// ErrNoConvergence is returned when an iterative eigensolver exceeds
// its iteration budget.
var ErrNoConvergence = errors.New("linalg: eigensolver failed to converge")

// EigenSym computes the full eigendecomposition of a symmetric matrix.
// It returns the eigenvalues in descending order and a matrix whose
// columns are the corresponding orthonormal eigenvectors.
//
// The reduction is classic tred2 (Householder) followed by tqli
// (implicit-shift QL), both adapted to row-major storage.
func EigenSym(a *matrix.Dense) ([]float64, *matrix.Dense, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, nil, fmt.Errorf("linalg: EigenSym of non-square %dx%d", n, a.Cols())
	}
	if n == 0 {
		return nil, matrix.NewDense(0, 0), nil
	}
	if !a.IsSymmetric(1e-8 * (1 + a.MaxAbs())) {
		return nil, nil, errors.New("linalg: EigenSym requires a symmetric matrix")
	}
	z := a.Clone()
	d := make([]float64, n) // diagonal of tridiagonal form, then eigenvalues
	e := make([]float64, n) // sub-diagonal
	tred2(z, d, e)
	if err := tqli(d, e, z); err != nil {
		return nil, nil, err
	}
	sortEigenDesc(d, z)
	return d, z, nil
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form by
// Householder similarity transformations, accumulating the orthogonal
// transform in z. On return d holds the diagonal and e the subdiagonal
// (e[0] is unused and set to 0). Ported from the standard tred2
// routine, operating on row slices rather than At/Set accessors — this
// is the O(n^3) hot loop of the dense eigensolver.
func tred2(z *matrix.Dense, d, e []float64) {
	n := z.Rows()
	a := z.Data() // row-major: (i,j) = a[i*n+j]
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ri := a[i*n:]
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(ri[k])
			}
			if matrix.IsZero(scale) {
				e[i] = ri[l]
			} else {
				for k := 0; k <= l; k++ {
					ri[k] /= scale
					h += ri[k] * ri[k]
				}
				f := ri[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				ri[l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					rj := a[j*n:]
					rj[i] = ri[j] / h
					g = 0
					for k := 0; k <= j; k++ {
						g += rj[k] * ri[k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k*n+j] * ri[k]
					}
					e[j] = g / h
					f += e[j] * ri[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = ri[j]
					g = e[j] - hh*f
					e[j] = g
					rj := a[j*n:]
					for k := 0; k <= j; k++ {
						rj[k] -= f*e[k] + g*ri[k]
					}
				}
			}
		} else {
			e[i] = ri[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		ri := a[i*n:]
		if !matrix.IsZero(d[i]) {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += ri[k] * a[k*n+j]
				}
				for k := 0; k <= l; k++ {
					a[k*n+j] -= g * a[k*n+i]
				}
			}
		}
		d[i] = ri[i]
		ri[i] = 1
		for j := 0; j <= l; j++ {
			a[j*n+i] = 0
			ri[j] = 0
		}
	}
}

// tqli finds the eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix (diagonal d, subdiagonal e with e[0] unused) by the implicit-
// shift QL method, rotating the accumulated transform z along. On return
// d holds eigenvalues and the columns of z the eigenvectors.
func tqli(d, e []float64, z *matrix.Dense) error {
	const maxIter = 50
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				//lint:ignore floatcmp the classic tqli convergence test: e[m] has underflowed exactly when adding it to dd is a no-op
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64*dd || math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= maxIter {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if matrix.IsZero(r) {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				rows, cols := z.Rows(), z.Cols()
				zd := z.Data()
				for k := 0; k < rows; k++ {
					row := zd[k*cols:]
					f := row[i+1]
					row[i+1] = s*row[i] + c*f
					row[i] = c*row[i] - s*f
				}
			}
			if matrix.IsZero(r) && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// sortEigenDesc sorts eigenvalues in descending order, permuting the
// eigenvector columns of z to match.
func sortEigenDesc(d []float64, z *matrix.Dense) {
	n := len(d)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] > d[idx[b]] })
	dOld := append([]float64(nil), d...)
	zOld := z.Clone()
	for newCol, oldCol := range idx {
		d[newCol] = dOld[oldCol]
		for r := 0; r < n; r++ {
			z.Set(r, newCol, zOld.At(r, oldCol))
		}
	}
}

// denseCutoff is the dimension at or below which TopKEigenSym always
// uses the full dense reduction: tred2+tqli on a 96x96 problem is
// cheaper than building a Krylov basis for it.
const denseCutoff = 96

// UsesLanczos reports whether TopKEigenSym routes an n x n problem with
// k wanted pairs to Lanczos rather than the full dense reduction —
// dense only when the matrix is small or most of the spectrum is
// wanted. Exported so the spectral solve engine can name the solver it
// is about to run without duplicating the policy.
func UsesLanczos(n, k int) bool { return n > denseCutoff && 3*k < n }

// TopKEigenSym returns the k largest eigenvalues of the symmetric
// matrix a and the matrix of their eigenvectors (n x k, columns ordered
// by descending eigenvalue). Only a's upper triangle is read, so packed
// and full storage give the same bits. For small matrices it runs the
// dense solver on a.Dense() — which, for a view over a full matrix,
// mirrors the upper triangle into that matrix's lower one; for larger
// ones it runs Lanczos from seed 0 with full reorthogonalization on
// a.MulVec, which is the "transform to tridiagonal, then QR" strategy
// of the paper.
func TopKEigenSym(a *matrix.Sym, k int) ([]float64, *matrix.Dense, error) {
	n := a.N()
	if k < 0 {
		return nil, nil, fmt.Errorf("linalg: negative k %d", k)
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return nil, matrix.NewDense(n, 0), nil
	}
	if !UsesLanczos(n, k) {
		vals, vecs, err := EigenSym(a.Dense())
		if err != nil {
			return nil, nil, err
		}
		return vals[:k], firstCols(vecs, k), nil
	}
	lz, err := Lanczos(a.MulVec, n, k, 0)
	if err != nil {
		return nil, nil, err
	}
	return lz.Values, lz.Vectors, nil
}

func firstCols(m *matrix.Dense, k int) *matrix.Dense {
	out := matrix.NewDense(m.Rows(), k)
	for i := 0; i < m.Rows(); i++ {
		copy(out.Row(i), m.Row(i)[:k])
	}
	return out
}
