package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/matrix"
)

// Op applies a symmetric linear operator: dst = A*src. dst and src have
// length n and never alias. Using an operator rather than an explicit
// matrix lets Lanczos run on sparse similarity graphs (the PSC baseline)
// and on dense Gram matrices alike.
type Op func(dst, src []float64)

// MatVec adapts a dense symmetric matrix to an Op. The product is one
// DotBlock call — src against the whole row block — so it inherits the
// blocked engine's 1x4 micro-tiled inner loop; this is the dominant
// cost of every Lanczos iteration on dense bucket Laplacians.
func MatVec(a *matrix.Dense) Op {
	rows, cols, data := a.Rows(), a.Cols(), a.Data()
	return func(dst, src []float64) {
		matrix.DotBlock(src, 1, data, rows, cols, dst)
	}
}

// LanczosResult holds the k converged extremal eigenpairs: Values in
// descending order and Vectors as an n x k column matrix.
type LanczosResult struct {
	Values  []float64
	Vectors *matrix.Dense
	// Iterations is the Krylov subspace dimension actually built.
	Iterations int
}

// Lanczos computes the k algebraically largest eigenpairs of the
// symmetric operator op of dimension n. seed controls the start vector
// (any value is fine; it only needs a component along the wanted
// eigenvectors, which holds almost surely).
//
// Full reorthogonalization is used: DASC's per-bucket problems are small
// enough that robustness is worth the extra dot products, and the PSC
// baseline needs accurate extremal pairs on graphs with clustered
// spectra.
func Lanczos(op Op, n, k int, seed int64) (*LanczosResult, error) {
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("linalg: Lanczos with n=%d k=%d", n, k)
	}
	if k > n {
		k = n
	}
	// Grow the Krylov subspace until the wanted Ritz pairs converge.
	// The residual of Ritz pair i is |beta_m * z_{m,i}| (last component
	// of the tridiagonal eigenvector scaled by the final off-diagonal),
	// so convergence is cheap to monitor.
	m := k*2 + 8
	if m > n {
		m = n
	}
	for {
		res, converged, err := lanczosOnce(op, n, k, m, seed)
		if err != nil {
			return nil, err
		}
		if converged || m >= n {
			return res, nil
		}
		m *= 2
		if m > n {
			m = n
		}
	}
}

// lanczosScratch is one iteration's pooled working set: the current
// and residual vectors plus the backing array the orthonormal basis
// vectors are carved from. Every slot is fully overwritten before it
// is read, so dirty pooled buffers are safe.
type lanczosScratch struct {
	v, w    []float64
	backing []float64 // m x n, basis vector j lives at [j*n:(j+1)*n]
}

var lanczosPool = sync.Pool{New: func() interface{} { return new(lanczosScratch) }}

// getLanczosScratch returns a pooled scratch sized for an m-step
// factorization of dimension n.
func getLanczosScratch(n, m int) *lanczosScratch {
	sc := lanczosPool.Get().(*lanczosScratch)
	if cap(sc.v) < n {
		sc.v = make([]float64, n)
		sc.w = make([]float64, n)
	}
	if cap(sc.backing) < m*n {
		sc.backing = make([]float64, m*n)
	}
	//lint:ignore poolescape deliberate ownership transfer: lanczosOnce, the only caller, defers lanczosPool.Put(sc) immediately after this returns
	return sc
}

// lanczosOnce builds an m-step Lanczos factorization with full
// reorthogonalization and extracts the top-k Ritz pairs, reporting
// whether all k residual bounds are below tolerance. All iteration
// scratch (v, w, the basis backing array) is pooled, so the per-call
// allocations are the returned Ritz pairs plus O(m) tridiagonal state —
// the property the per-bucket sparse solve counts on.
func lanczosOnce(op Op, n, k, m int, seed int64) (*LanczosResult, bool, error) {
	sc := getLanczosScratch(n, m)
	defer lanczosPool.Put(sc)
	rng := rand.New(rand.NewSource(seed + 0x9E3779B9))
	v := sc.v[:n]
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	matrix.Normalize(v)

	basis := make([][]float64, 0, m) // orthonormal Lanczos vectors
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m) // beta[j] couples basis[j] and basis[j+1]
	exhausted := false            // invariant subspace found before m steps

	w := sc.w[:n]
	for j := 0; j < m; j++ {
		slot := sc.backing[j*n : (j+1)*n]
		copy(slot, v)
		basis = append(basis, slot)
		op(w, v)
		a := matrix.Dot(w, v)
		alpha = append(alpha, a)
		// w -= a*v + beta_{j-1} * v_{j-1}
		matrix.AXPY(-a, v, w)
		if j > 0 {
			matrix.AXPY(-beta[j-1], basis[j-1], w)
		}
		// Full reorthogonalization against the whole basis (twice is
		// enough by Kahan–Parlett).
		for pass := 0; pass < 2; pass++ {
			for _, q := range basis {
				c := matrix.Dot(w, q)
				if !matrix.IsZero(c) {
					matrix.AXPY(-c, q, w)
				}
			}
		}
		b := matrix.Norm2(w)
		if b < 1e-13 {
			exhausted = true
			break
		}
		if j == m-1 {
			break
		}
		beta = append(beta, b)
		for i := range v {
			v[i] = w[i] / b
		}
	}

	j := len(alpha)
	// Solve the j x j tridiagonal eigenproblem with tqli.
	d := append([]float64(nil), alpha...)
	e := make([]float64, j)
	for i := 1; i < j; i++ {
		e[i] = beta[i-1]
	}
	z := matrix.Identity(j)
	if err := tqli(d, e, z); err != nil {
		return nil, false, err
	}
	sortEigenDesc(d, z)

	if k > j {
		k = j
	}
	// Convergence: residual of Ritz pair i is |beta_{j-1} * z_{j-1,i}|.
	converged := true
	if exhausted || j >= n {
		converged = true
	} else {
		lastBeta := 0.0
		if len(beta) >= j-1 && j >= 1 {
			// beta[j-1] would couple to the (j+1)-th vector; it equals
			// the norm of the last residual w.
			lastBeta = matrix.Norm2(w)
		}
		scale := 1.0
		if len(d) > 0 {
			scale += math.Abs(d[0])
		}
		for i := 0; i < k; i++ {
			if math.Abs(lastBeta*z.At(j-1, i)) > 1e-9*scale {
				converged = false
				break
			}
		}
	}
	// Ritz vectors: X = V * Z[:, :k], where V stacks the Lanczos basis.
	vecs := matrix.NewDense(n, k)
	for col := 0; col < k; col++ {
		for row := 0; row < n; row++ {
			var s float64
			for l := 0; l < j; l++ {
				s += basis[l][row] * z.At(l, col)
			}
			vecs.Set(row, col, s)
		}
	}
	return &LanczosResult{Values: d[:k], Vectors: vecs, Iterations: j}, converged, nil
}

// Orthonormality returns the largest deviation |<q_i, q_j> - delta_ij|
// over all column pairs of q — a diagnostic used by tests to validate
// eigenvector bases.
func Orthonormality(q *matrix.Dense) float64 {
	var worst float64
	for i := 0; i < q.Cols(); i++ {
		qi := q.Col(i)
		for j := i; j < q.Cols(); j++ {
			qj := q.Col(j)
			d := matrix.Dot(qi, qj)
			if i == j {
				d -= 1
			}
			if a := math.Abs(d); a > worst {
				worst = a
			}
		}
	}
	return worst
}
