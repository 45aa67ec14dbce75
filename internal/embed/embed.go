// Package embed implements the kernel embedding of the embed-and-conquer
// solve path (PAPERS.md "Embed and Conquer: Scalable Embeddings for
// Kernel k-Means on MapReduce", arXiv:1311.2334): RFF, a random Fourier
// feature map φ: R^d → R^d′ with ⟨φ(x), φ(y)⟩ ≈ k(x, y) for the Gaussian
// kernel, so kernel k-means on a bucket becomes plain Hamerly k-means on
// embedded rows — no Gram, no eigensolve, and a working set of O(n·d′)
// instead of O(n²).
package embed

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
	"repro/internal/par"
)

const (
	// blockRows mirrors the kernel engine's cache-resident block edge.
	blockRows = 64
	// parallelCutoff is the row count above which transforms go
	// parallel; below it the goroutine handoff costs more than the work.
	parallelCutoff = 192
)

// scratchPool recycles gather and dot scratch across transforms, the
// same recipe as the kernel engine's pool.
var scratchPool = sync.Pool{
	New: func() interface{} { s := make([]float64, 0, blockRows*blockRows); return &s },
}

func getScratch(n int) (*[]float64, []float64) {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	buf := (*p)[:n]
	//lint:ignore poolescape deliberate ownership transfer: every caller pairs this with putScratch(p) (usually deferred), and buf aliases the loan so it dies when p is returned
	return p, buf
}

func putScratch(p *[]float64) { scratchPool.Put(p) }

// checkTransform validates the TransformInto contract and returns the
// row count.
func checkTransform(dst []float64, points *matrix.Dense, indices []int, inputDim, dim int) (int, error) {
	if points.Cols() != inputDim {
		return 0, fmt.Errorf("embed: points have %d dims, embedder fitted for %d", points.Cols(), inputDim)
	}
	n := points.Rows()
	if indices != nil {
		n = len(indices)
		for _, idx := range indices {
			if idx < 0 || idx >= points.Rows() {
				return 0, fmt.Errorf("embed: row index %d out of range [0,%d)", idx, points.Rows())
			}
		}
	}
	if len(dst) != n*dim {
		return 0, fmt.Errorf("embed: dst length %d, want %d rows x %d dims = %d", len(dst), n, dim, n*dim)
	}
	return n, nil
}

// gatherRows returns a contiguous row-major view of the selected rows:
// the matrix storage itself when indices is nil, a pooled copy
// otherwise. The returned token is nil when no scratch was borrowed.
func gatherRows(points *matrix.Dense, indices []int) (*[]float64, []float64) {
	if indices == nil {
		return nil, points.Data()
	}
	d := points.Cols()
	tok, buf := getScratch(len(indices) * d)
	for a, idx := range indices {
		copy(buf[a*d:(a+1)*d], points.Row(idx))
	}
	return tok, buf
}

// forEachRowBlock runs fn over fixed blockRows-edged row blocks
// [i0, i1), serially for small n and fanned out through internal/par
// above parallelCutoff. Blocks are a deterministic function of n alone;
// fn must write only its own block's outputs.
func forEachRowBlock(n int, fn func(i0, i1 int)) {
	nb := (n + blockRows - 1) / blockRows
	limit := nb
	if n < parallelCutoff {
		limit = 1
	}
	// fn cannot fail.
	_ = par.Each(nb, limit, func(b int) error {
		fn(b*blockRows, min(n, (b+1)*blockRows))
		return nil
	})
}

// Bytes returns the storage footprint of an n-row embedding at
// dimension dim: 8·n·d′ for float64 rows. It is the embedded-path
// analogue of kernel.GramBytes.
func Bytes(n, dim int) int64 {
	return 8 * int64(n) * int64(dim)
}
