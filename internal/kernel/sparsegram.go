package kernel

// This file is the sparse half of the Gram compute engine: an
// ε-thresholded emit mode that streams the same 1×4 micro-tiled dot
// blocks as fast.go into CSR storage instead of a dense n×n buffer, so
// large buckets with a tight kernel bandwidth never materialize the
// dense Gram at all.
//
// The decomposition is by upper-triangle row strips: strip s covers
// rows [s·blockRows, (s+1)·blockRows) and, for the Gaussian, one
// DotBlock call produces every dot product of the strip's rows against
// columns j ≥ s·blockRows (the strict upper triangle plus the mirror
// seed). Each strip appends its surviving entries to strip-local
// buffers, the strips fan out through internal/par, and a sequential
// O(nnz) pass assembles the symmetric CSR — so, as with the dense
// engine, the emitted values and their order are identical however many
// goroutines ran the strips.

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/sparse"
)

// SubGramPooled builds the dense sub-Gram of the listed rows inside
// *scratch (grown as needed and reused across calls) and optionally
// completes the diagonal with the true self-similarities k(x,x) that
// SVM requires; kernel k-means keeps the zero-diagonal convention. Its
// callers, bucketed kernel k-means and SMO, scan whole rows. The
// returned matrix aliases *scratch.
func SubGramPooled(points *matrix.Dense, indices []int, k Kernel, scratch *[]float64, withDiagonal bool) (*matrix.Dense, error) {
	ni := len(indices)
	if cap(*scratch) < ni*ni {
		*scratch = make([]float64, ni*ni)
	}
	sub, err := matrix.NewDenseData(ni, ni, (*scratch)[:ni*ni])
	if err != nil {
		return nil, err
	}
	SubGramInto(sub, points, indices, k)
	if withDiagonal {
		for i, idx := range indices {
			sub.Set(i, i, k.Eval(points.Row(idx), points.Row(idx)))
		}
	}
	return sub, nil
}

// SubGramSparse computes the ε-thresholded sub-Gram of the listed rows
// (indices nil means all rows) as a symmetric CSR matrix with zero
// diagonal: entry (i,j), i≠j, is stored iff |k(xi,xj)| ≥ eps. For the
// Gaussian kernel the threshold is applied to the squared distance (v ≥ ε ⟺ ‖x−y‖² ≤ −ln(ε)·2σ²), so
// dropped pairs never pay the exp call. eps = 0 keeps every entry —
// the densified result then matches SubGram's sparsity pattern exactly
// (zero diagonal included), which the sparse/dense agreement property
// test relies on. Peak memory is O(blockRows·n) dot scratch plus the
// O(nnz) output, never O(n²).
func SubGramSparse(points *matrix.Dense, indices []int, k Kernel, eps float64) (*sparse.CSR, error) {
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("kernel: sparse threshold %v must be >= 0", eps)
	}
	n := points.Rows()
	if indices != nil {
		n = len(indices)
	}
	if n == 0 {
		return sparse.NewCSRFromRaw(0, []int{0}, nil, nil)
	}
	kind, inv := recognize(k)
	d := points.Cols()

	// For the Gaussian, gather the operand rows contiguous and
	// precompute squared norms, exactly as the dense fast path does.
	var gathered, sq []float64
	var gatherTok, sqTok *[]float64
	if kind != kindGeneric {
		if indices == nil {
			gathered = points.Data()
		} else {
			gatherTok, gathered = getScratch(n * d)
			defer putScratch(gatherTok)
			for a, idx := range indices {
				copy(gathered[a*d:(a+1)*d], points.Row(idx))
			}
		}
		sqTok, sq = getScratch(n)
		defer putScratch(sqTok)
		for i := 0; i < n; i++ {
			sq[i] = matrix.Dot4(gathered[i*d:(i+1)*d], gathered[i*d:(i+1)*d])
		}
	}
	// Gaussian: exp(-d²·inv) ≥ eps ⟺ d² ≤ -ln(eps)/inv. eps = 0 keeps
	// everything (d2max = +Inf); eps > 1 keeps only exact duplicates.
	d2max := math.Inf(1)
	if kind == kindGaussian && eps > 0 {
		d2max = -math.Log(eps) / inv
	}
	rowOf := func(a int) []float64 {
		if indices == nil {
			return points.Row(a)
		}
		return points.Row(indices[a])
	}

	nb := (n + blockRows - 1) / blockRows
	strips := make([]stripEmit, nb)
	oneStrip := func(si int, dotsTok *[]float64) {
		i0, i1 := si*blockRows, min(n, (si+1)*blockRows)
		ra, width := i1-i0, n-i0
		em := &strips[si]
		em.rowNNZ = make([]int, ra)
		var dots []float64
		if kind != kindGeneric {
			if cap(*dotsTok) < ra*width {
				*dotsTok = make([]float64, ra*width)
			}
			dots = (*dotsTok)[:ra*width]
			matrix.DotBlock(gathered[i0*d:i1*d], ra, gathered[i0*d:], width, d, dots)
		}
		for i := i0; i < i1; i++ {
			start := len(em.cols)
			switch kind {
			case kindGaussian:
				sqi := sq[i]
				drow := dots[(i-i0)*width:]
				for j := i + 1; j < n; j++ {
					d2 := sqi + sq[j] - 2*drow[j-i0]
					if d2 < 0 {
						d2 = 0
					}
					if d2 > d2max {
						continue
					}
					em.cols = append(em.cols, j)
					em.vals = append(em.vals, math.Exp(-d2*inv))
				}
			default:
				xi := rowOf(i)
				for j := i + 1; j < n; j++ {
					v := k.Eval(xi, rowOf(j))
					if math.Abs(v) < eps {
						continue
					}
					em.cols = append(em.cols, j)
					em.vals = append(em.vals, v)
				}
			}
			em.rowNNZ[i-i0] = len(em.cols) - start
		}
	}

	err := par.Workers(nb, fanout(n, nb), func(next func() (int, bool)) error {
		dotsTok, _ := getScratch(0)
		defer putScratch(dotsTok)
		for si, ok := next(); ok; si, ok = next() {
			oneStrip(si, dotsTok)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assembleSymmetricCSR(n, strips)
}

// stripEmit is one row strip's surviving strict-upper-triangle entries,
// appended in (row, col) order. rowNNZ[r] counts row i0+r's entries.
type stripEmit struct {
	rowNNZ []int
	cols   []int
	vals   []float64
}

// assembleSymmetricCSR mirrors the strips' strict-upper-triangle
// entries into a full symmetric CSR in one sequential O(nnz) pass.
// Lower-triangle slots of row j are filled by scanning the upper
// entries in (i, j) order, so each row's mirrored columns arrive
// already ascending and no sort is needed.
func assembleSymmetricCSR(n int, strips []stripEmit) (*sparse.CSR, error) {
	upperCount := make([]int, n)
	lowerCount := make([]int, n)
	for si := range strips {
		em := &strips[si]
		i0 := si * blockRows
		for r, c := range em.rowNNZ {
			upperCount[i0+r] = c
		}
		for _, j := range em.cols {
			lowerCount[j]++
		}
	}
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + lowerCount[i] + upperCount[i]
	}
	nnz := rowPtr[n]
	cols := make([]int, nnz)
	vals := make([]float64, nnz)
	mirror := make([]int, n) // next free lower-triangle slot per row
	for i := range mirror {
		mirror[i] = rowPtr[i]
	}
	for si := range strips {
		em := &strips[si]
		idx := 0
		for r, cnt := range em.rowNNZ {
			i := si*blockRows + r
			up := rowPtr[i] + lowerCount[i]
			for e := 0; e < cnt; e++ {
				j, v := em.cols[idx], em.vals[idx]
				idx++
				cols[up], vals[up] = j, v
				up++
				cols[mirror[j]], vals[mirror[j]] = i, v
				mirror[j]++
			}
		}
	}
	return sparse.NewCSRFromRaw(n, rowPtr, cols, vals)
}
