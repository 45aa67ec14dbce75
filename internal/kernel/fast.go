package kernel

// This file is the Gram compute engine: one block loop, gramFill.run,
// fills every Gram the package builds. Its three outputs are
//
//   - symOut: the upper triangle of a matrix.Sym, packed (the solve
//     engine's SubGramPacked) or over a full n x n matrix (Gram, SubGram,
//     SubGramPooled), zero diagonal; over a full matrix each value is
//     also stored at its mirror;
//   - rectOut: a rectangle k(a_i, b_j) between two row sets
//     (CrossGramInto, the Nyström blocks), where a self pair gives k(x,x);
//   - sparseOut: the ε-thresholded strict upper triangle as per-strip
//     CSR fragments, which assembleSymmetricCSR mirrors (SubGramSparse).
//
// For the recognized Gaussian the loop gathers each operand's rows into
// contiguous scratch once, takes their squared norms once, and forms
// every value from one DotBlock tile as exp(-d²/(2σ²)) with
// d² = ‖a‖² + ‖b‖² − 2·a·b clamped at 0 — roughly a third of the flops
// of a per-pair subtract-square loop. Any other Kernel (every Func) is
// evaluated per pair in the same loop.
//
// Summation contract: every norm and dot product is one ascending
// chain, bit for bit matrix.Dot, in every tile position and tail. A
// value is therefore the same whichever output, block shape or
// goroutine produced it: the packed fill equals the full one, a block
// against itself has an exact-one diagonal and is bitwise symmetric,
// and the rows of a strip fan out on internal/par over a fixed
// decomposition, so no output depends on GOMAXPROCS.

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
// fill loop, killing the per-bucket allocation churn of the solve stage.
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

// operand is one side of a fill: n rows, and for the Gaussian the rows
// gathered contiguous with their squared norms.
type operand struct {
	n, d int
	row  func(int) []float64
	rows []float64 // Gaussian only: the n rows, row-major
	sq   []float64 // Gaussian only: their squared norms
	toks []*[]float64
}

// newOperand is the listed rows of points (nil indices: every row). For
// the Gaussian it gathers them into pooled scratch — the matrix storage
// itself when indices is nil — and takes each row's squared norm;
// release hands the scratch back.
func newOperand(points *matrix.Dense, indices []int, kind fastKind) *operand {
	o := &operand{n: points.Rows(), d: points.Cols(), row: points.Row, rows: points.Data()}
	if indices != nil {
		o.n = len(indices)
		o.row = func(a int) []float64 { return points.Row(indices[a]) }
	}
	if kind == kindGeneric {
		return o
	}
	if indices != nil {
		tok, rows := getScratch(o.n * o.d)
		o.toks = append(o.toks, tok)
		o.rows = matrix.GatherRows(rows, points, indices)
	}
	tok, sq := getScratch(o.n)
	o.toks = append(o.toks, tok)
	for i := range sq {
		r := o.rows[i*o.d : (i+1)*o.d]
		sq[i] = matrix.Dot(r, r)
	}
	o.sq = sq
	return o
}

func (o *operand) release() {
	for _, tok := range o.toks {
		putScratch(tok)
	}
}

// gramOut is one output of the block loop. For each row i of a block and
// the columns [j, j1) the fill forms there, seg returns where their
// values go — the output's storage, or buf, which holds their dot
// products and may be overwritten — and put is handed them once written.
type gramOut interface {
	seg(i, j, j1 int, buf []float64) []float64
	put(i, j int, vals []float64)
}

// gramFill is one Gram computation: k over the rows of a against the
// rows of b. upper restricts it to the pairs j > i of a symmetric
// fill (b is a); tile is the column width of one DotBlock — blockRows,
// or b's whole width for an output that wants each row in one piece.
type gramFill struct {
	k     Kernel
	a, b  *operand
	upper bool
	tile  int
	// d2max: a Gaussian pair whose squared distance exceeds it is not
	// evaluated, and its value is -1, which no Gaussian takes. +Inf
	// evaluates every pair.
	d2max float64
	out   gramOut
}

// run is the engine's one block loop: a's rows in strips of blockRows,
// fanned out on internal/par, each strip against b's columns tile by
// tile (from the strip's own diagonal on when upper). Every value is
// written once, so a full output needs no pre-zeroing.
func (f *gramFill) run() {
	kind, inv := recognize(f.k)
	a, b, d := f.a, f.b, f.a.d
	strips := (a.n + blockRows - 1) / blockRows
	// The block body cannot fail.
	_ = par.Workers(strips, fanout(max(a.n, b.n), strips), func(next func() (int, bool)) error {
		tok, dots := getScratch(blockRows * f.tile)
		defer putScratch(tok)
		for s, ok := next(); ok; s, ok = next() {
			i0, i1 := s*blockRows, min(a.n, (s+1)*blockRows)
			c0 := 0
			if f.upper {
				c0 = i0
			}
			for j0 := c0; j0 < b.n; j0 += f.tile {
				j1 := min(b.n, j0+f.tile)
				w := j1 - j0
				if kind == kindGaussian {
					matrix.DotBlock(a.rows[i0*d:i1*d], i1-i0, b.rows[j0*d:j1*d], w, d, dots[:(i1-i0)*w])
				}
				for i := i0; i < i1; i++ {
					jlo := j0
					if f.upper {
						jlo = max(j0, i+1)
					}
					buf := dots[(i-i0)*w+jlo-j0:][:j1-jlo]
					vals := f.out.seg(i, jlo, j1, buf)
					switch kind {
					case kindGaussian:
						gaussianRow(vals, buf, a.sq[i], b.sq[jlo:j1], inv, f.d2max)
					default:
						xi := a.row(i)
						for t := range vals {
							vals[t] = f.k.Eval(xi, b.row(jlo+t))
						}
					}
					f.out.put(i, jlo, vals)
				}
			}
		}
		return nil
	})
}

// gaussianRow writes vals[t] = exp(-d²·inv) for the squared distances
// d² = sqi + sqj[t] − 2·dots[t], clamped at 0; a pair with d² > d2max is
// not evaluated and reads -1. vals may alias dots.
func gaussianRow(vals, dots []float64, sqi float64, sqj []float64, inv, d2max float64) {
	dots, sqj = dots[:len(vals)], sqj[:len(vals)]
	for t := range vals {
		d2 := sqi + sqj[t] - 2*dots[t]
		if d2 < 0 {
			d2 = 0 // rounding can push a tiny distance negative
		}
		if d2 > d2max {
			vals[t] = -1
			continue
		}
		vals[t] = math.Exp(-d2 * inv)
	}
}

// symFill writes the similarities of the listed rows of points (indices
// nil means all rows) into the upper triangle of dst, zero diagonal.
func symFill(dst *matrix.Sym, points *matrix.Dense, indices []int, k Kernel) {
	if dst.N() == 0 {
		return
	}
	kind, _ := recognize(k)
	o := newOperand(points, indices, kind)
	defer o.release()
	f := gramFill{k: k, a: o, b: o, upper: true, tile: blockRows, d2max: math.Inf(1), out: symOut{dst}}
	f.run()
}

// gramInto fills the n x n matrix s with the similarities of the listed
// rows of points (nil indices means all rows), zero diagonal, through a
// view of s that stores both triangles. Every entry of s is written, so
// s does not need pre-zeroing.
func gramInto(s *matrix.Dense, points *matrix.Dense, indices []int, k Kernel) {
	v, err := matrix.UpperSym(s)
	if err != nil {
		matrix.Panicf("kernel: %v", err)
	}
	symFill(v, points, indices, k)
}

// symOut stores into the upper triangle of a symmetric view. The
// diagonal block's segment of row i starts right of the diagonal, which
// is zeroed there; over a full matrix every value is also stored at its
// mirror.
type symOut struct{ s *matrix.Sym }

func (o symOut) seg(i, j, j1 int, _ []float64) []float64 {
	row := o.s.Row(i)
	if j == i+1 {
		row[0] = 0
	}
	return row[j-i : j1-i]
}

func (o symOut) put(i, j int, vals []float64) {
	if lower := o.s.Lower(i, j); lower != nil {
		n := o.s.N()
		for t, v := range vals {
			lower[t*n] = v
		}
	}
}

// rectOut stores into a dense rectangle, row i of a at row i.
type rectOut struct{ m *matrix.Dense }

func (o rectOut) seg(i, j, j1 int, _ []float64) []float64 { return o.m.Row(i)[j:j1] }

func (rectOut) put(int, int, []float64) {}
