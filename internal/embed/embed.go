// Package embed implements low-dimensional kernel embeddings for the
// embed-and-conquer solve path (PAPERS.md "Embed and Conquer: Scalable
// Embeddings for Kernel k-Means on MapReduce", arXiv:1311.2334): a map
// φ: R^d → R^d′ with ⟨φ(x), φ(y)⟩ ≈ k(x, y), so kernel k-means on a
// bucket becomes plain Hamerly k-means on embedded rows — no Gram, no
// eigensolve, and a working set of O(n·d′) instead of O(n²).
//
// Two embedders are provided behind one interface: random Fourier
// features for the Gaussian kernel (seed-derived frequencies, cos/sin
// pairing) and a Nyström embedding that reuses the landmark math of
// internal/baseline/nystrom.go via the blocked cross-kernel engine.
//
// Determinism contract. Every embedder is a pure per-row function of
// (row, fitted parameters): the blocked transform computes each output
// with a fixed accumulation order that depends only on the parameter
// layout — never on which rows are co-resident in a block, the subset
// being transformed, or the worker count. Embedding a bucket's rows
// therefore produces bitwise the same floats as slicing those rows out
// of a whole-dataset embedding, which is what lets every driver — whether
// a bucket is solved in the driver's process or a worker's, on rows held
// in memory, shipped or read from shards — agree bit for bit.
package embed

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
	"repro/internal/par"
)

// Embedder maps rows of a point matrix into a d′-dimensional feature
// space whose ordinary dot products approximate a kernel.
type Embedder interface {
	// Dim returns d′, the embedded dimension.
	Dim() int
	// InputDim returns the expected point dimensionality d.
	InputDim() int
	// TransformInto fills dst (len(indices) × Dim() row-major; indices
	// nil means all rows) with the embeddings of the listed rows of
	// points. The output is a pure per-row function: bitwise identical
	// for a given row regardless of the subset, block position, or
	// worker count.
	TransformInto(dst []float64, points *matrix.Dense, indices []int) error
}

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

// checkTransform validates the common TransformInto contract and
// returns the row count.
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
