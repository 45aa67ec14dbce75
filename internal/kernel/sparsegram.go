package kernel

// This file is the sparse output of the Gram engine: an ε-thresholded
// emit mode that streams the engine's values into CSR storage instead of
// a dense n×n buffer, so large buckets with a tight kernel bandwidth
// never materialize the dense Gram at all.
//
// Each row strip of the fill forms its rows against every column right
// of the diagonal in one DotBlock and appends the surviving entries to
// strip-local buffers; a sequential O(nnz) pass then assembles the
// symmetric CSR — so, as with the dense outputs, the emitted values and
// their order are identical however many goroutines ran the strips.

import (
	"fmt"
	"math"

	"repro/internal/matrix"
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
	gramInto(sub, points, indices, k)
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
	kind, inv := recognize(k)
	o := newOperand(points, indices, kind)
	defer o.release()
	if o.n == 0 {
		return sparse.NewCSRFromRaw(0, []int{0}, nil, nil)
	}
	// Gaussian: exp(-d²·inv) ≥ eps ⟺ d² ≤ -ln(eps)/inv. eps = 0 keeps
	// everything (d2max = +Inf); eps > 1 keeps only exact duplicates.
	d2max := math.Inf(1)
	if kind == kindGaussian && eps > 0 {
		d2max = -math.Log(eps) / inv
	}
	out := &sparseOut{strips: make([]stripEmit, (o.n+blockRows-1)/blockRows), eps: eps, generic: kind == kindGeneric}
	for si := range out.strips {
		out.strips[si].rowNNZ = make([]int, min(blockRows, o.n-si*blockRows))
	}
	f := gramFill{k: k, a: o, b: o, upper: true, tile: o.n, d2max: d2max, out: out}
	f.run()
	return assembleSymmetricCSR(o.n, out.strips)
}

// sparseOut keeps the surviving entries of each row, strip by strip: a
// Gaussian pair survives unless the fill skipped it past d2max (-1), any
// other kernel's value unless its magnitude is below eps.
type sparseOut struct {
	strips  []stripEmit
	eps     float64
	generic bool
}

func (o *sparseOut) seg(_, _, _ int, buf []float64) []float64 { return buf }

func (o *sparseOut) put(i, j int, vals []float64) {
	em := &o.strips[i/blockRows]
	start := len(em.cols)
	for t, v := range vals {
		if o.generic && math.Abs(v) < o.eps || !o.generic && v < 0 {
			continue
		}
		em.cols = append(em.cols, j+t)
		em.vals = append(em.vals, v)
	}
	em.rowNNZ[i%blockRows] = len(em.cols) - start
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
