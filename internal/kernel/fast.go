package kernel

// This file is the vectorized Gram compute engine. Gram, SubGram and
// SubGramPacked all funnel into symGramInto, one block-pair loop over
// the upper triangle that writes through a matrix.Sym view and
// dispatches on the kernel's dynamic type:
//
//   - the recognized kernel (*GaussianKernel) takes the blocked fast
//     path: squared row norms are precomputed once, bucket rows are
//     gathered into contiguous scratch, and every pairwise
//     value is formed from a 4-wide unrolled dot product via
//     ‖x−y‖² = ‖x‖² + ‖y‖² − 2·x·y — roughly a third of the flops of
//     the per-pair subtract-square loop, with no closure call and no
//     per-element bounds checks;
//   - any other Kernel (including every Func) is evaluated per pair in
//     the same loop, so custom kernels keep working unchanged.
//
// Each pair is computed once. Packed storage (the solve engine's) holds
// only the triangle; over a full matrix (the n x n API) each value is
// also stored at its mirror in the same pass, where the exp hides the
// strided store (a separate mirror pass per block cost +10 % at
// n = 3 086). The fixed block decomposition goes to internal/par for
// large matrices, so the computed values are identical however many
// goroutines run it.

import (
	"math"
	"sync"

	"repro/internal/matrix"
	"repro/internal/par"
)

// Kernel is the recognized-kernel interface of the Gram engine: Eval is
// the generic per-pair form, and the implementation the engine
// recognizes (GaussianKernel) additionally gets the blocked fast path.
// A plain Func is a Kernel via its Eval method, so closure kernels
// remain the universal fallback.
type Kernel interface {
	Eval(x, y []float64) float64
}

// Eval applies the kernel function, making every Func a Kernel.
func (f Func) Eval(x, y []float64) float64 { return f(x, y) }

// GaussianKernel is the recognized form of the Gaussian RBF of Eq. 1.
// Use NewGaussian to construct it; the Gram engine computes it blocked
// and parallel.
type GaussianKernel struct {
	// Sigma is the bandwidth.
	Sigma float64
	inv   float64
}

// NewGaussian returns the recognized Gaussian RBF kernel with bandwidth
// sigma: exp(-‖x−y‖² / (2σ²)). It panics if sigma <= 0.
func NewGaussian(sigma float64) *GaussianKernel {
	if sigma <= 0 {
		matrix.Panicf("kernel: sigma %v must be positive", sigma)
	}
	return &GaussianKernel{Sigma: sigma, inv: 1 / (2 * sigma * sigma)}
}

// Eval computes exp(-‖x−y‖² / (2σ²)) for one pair.
func (g *GaussianKernel) Eval(x, y []float64) float64 {
	return math.Exp(-matrix.SqDist(x, y) * g.inv)
}

const (
	// blockRows is the row-block edge of the blocked engine: two blocks
	// of 64 rows x 64 dims of float64 are 64 KiB, cache-resident on any
	// modern core.
	blockRows = 64
	// parallelCutoff is the matrix size above which the engine fans
	// out; below it the goroutine handoff costs more than the work.
	parallelCutoff = 192
)

// fanout is the par limit of a loop over blocks pieces of an operand of
// n rows: everything above parallelCutoff, the serial loop below it.
func fanout(n, blocks int) int {
	if n < parallelCutoff {
		return 1
	}
	return blocks
}

// scratchPool recycles the gather, norm and dot-block scratch of the
// fill loop (and MedianSigma's norms), killing the per-bucket
// allocation churn of the solve stage.
var scratchPool = sync.Pool{
	New: func() interface{} { s := make([]float64, 0, blockRows*blockRows); return &s },
}

// getScratch returns a pooled []float64 of length n (contents
// unspecified) and the pool token to hand back to putScratch.
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

// fastKind classifies a kernel for the blocked path.
type fastKind int

const (
	kindGeneric fastKind = iota
	kindGaussian
)

// recognize reports the fast-path classification of k and, for the
// Gaussian, its 1/(2σ²).
func recognize(k Kernel) (fastKind, float64) {
	if g, ok := k.(*GaussianKernel); ok {
		return kindGaussian, g.inv
	}
	return kindGeneric, 0
}

// gramInto fills the n x n matrix s with pairwise similarities of the
// listed rows of points (indices nil means all rows), with a zero
// diagonal: symGramInto through a view of s, which stores both
// triangles. Every entry of s is written, so s does not need
// pre-zeroing.
func gramInto(s *matrix.Dense, points *matrix.Dense, indices []int, k Kernel) {
	v, err := matrix.UpperSym(s)
	if err != nil {
		matrix.Panicf("kernel: %v", err)
	}
	symGramInto(v, points, indices, k)
}

// symGramInto is the one fill loop of the engine: it writes the
// similarities of the listed rows of points (indices nil means all rows)
// through the symmetric view dst, zero diagonal, block pair by block
// pair over the upper triangle. The Gaussian forms each block from one
// DotBlock over gathered rows and precomputed norms; any other
// Kernel is evaluated per pair. Each pair is computed once, and every
// entry of dst is written.
func symGramInto(dst *matrix.Sym, points *matrix.Dense, indices []int, k Kernel) {
	n := dst.N()
	if n == 0 {
		return
	}
	kind, inv := recognize(k)
	d := points.Cols()
	rowOf := func(a int) []float64 {
		if indices == nil {
			return points.Row(a)
		}
		return points.Row(indices[a])
	}
	// Gather the operand rows into one contiguous block. When indices
	// is nil the matrix storage already is that block.
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

	// Deterministic block decomposition of the upper triangle.
	nb := (n + blockRows - 1) / blockRows
	type blockPair struct{ bi, bj int }
	pairs := make([]blockPair, 0, nb*(nb+1)/2)
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			pairs = append(pairs, blockPair{bi, bj})
		}
	}

	oneBlock := func(p blockPair, dots []float64) {
		i0, i1 := p.bi*blockRows, min(n, (p.bi+1)*blockRows)
		j0, j1 := p.bj*blockRows, min(n, (p.bj+1)*blockRows)
		ra, rb := i1-i0, j1-j0
		if kind != kindGeneric {
			dots = dots[:ra*rb] // edge blocks are smaller than blockRows
			matrix.DotBlock(gathered[i0*d:i1*d], ra, gathered[j0*d:j1*d], rb, d, dots)
		}
		for i := i0; i < i1; i++ {
			jlo := j0
			row := dst.Row(i)
			if p.bi == p.bj {
				jlo = i + 1 // strict upper triangle within the diagonal block
				row[0] = 0
			}
			out := row[jlo-i : j1-i]
			// Over a full matrix each value is also stored at its mirror,
			// in the same pass; packed storage has no lower triangle.
			lower := dst.Lower(i, jlo)
			switch kind {
			case kindGaussian:
				sqi, sqj := sq[i], sq[jlo:j1][:len(out)]
				drow := dots[(i-i0)*rb+jlo-j0:][:len(out)]
				for t := range out {
					d2 := sqi + sqj[t] - 2*drow[t]
					if d2 < 0 {
						d2 = 0 // rounding can push a tiny distance negative
					}
					v := math.Exp(-d2 * inv)
					out[t] = v
					if lower != nil {
						lower[t*n] = v
					}
				}
			default:
				xi := rowOf(i)
				for t := range out {
					v := k.Eval(xi, rowOf(jlo+t))
					out[t] = v
					if lower != nil {
						lower[t*n] = v
					}
				}
			}
		}
	}

	// oneBlock cannot fail.
	_ = par.Workers(len(pairs), fanout(n, len(pairs)), func(next func() (int, bool)) error {
		tok, dots := getScratch(blockRows * blockRows)
		defer putScratch(tok)
		for i, ok := next(); ok; i, ok = next() {
			oneBlock(pairs[i], dots)
		}
		return nil
	})
}
