// Package sparse provides a compressed sparse row (CSR) matrix with
// the operations the sparse spectral-clustering path needs: symmetric
// construction from coordinate triplets, matrix-vector products, row
// sums, and symmetric diagonal scaling. The PSC baseline's t-NN
// similarity graph and any user-supplied sparse affinity run through
// this package.
package sparse

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/matrix"
	"repro/internal/par"
)

// CSR is an n x n sparse matrix in compressed sparse row form: row i's
// entries live in cols/vals[rowPtr[i]:rowPtr[i+1]], column-sorted. The
// pattern is fixed at construction; only ScaleSym rewrites values.
type CSR struct {
	n      int
	rowPtr []int
	cols   []int
	vals   []float64
}

// Triplet is one coordinate-form entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSR builds an n x n CSR matrix from triplets. Duplicate (row,col)
// entries are summed. Entries with Val == 0 are dropped.
func NewCSR(n int, entries []Triplet) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d", n)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, n, n)
		}
	}
	sorted := append([]Triplet(nil), entries...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Row != sorted[b].Row {
			return sorted[a].Row < sorted[b].Row
		}
		return sorted[a].Col < sorted[b].Col
	})
	m := &CSR{n: n, rowPtr: make([]int, n+1)}
	for i := 0; i < len(sorted); {
		j := i
		var sum float64
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		if !matrix.IsZero(sum) {
			m.cols = append(m.cols, sorted[i].Col)
			m.vals = append(m.vals, sum)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m, nil
}

// Symmetrized returns a CSR containing, for every stored entry (i,j,v),
// both (i,j,v) and (j,i,v); duplicate coordinates keep the larger
// magnitude (the OR-symmetrization of t-NN graphs).
func Symmetrized(n int, entries []Triplet) (*CSR, error) {
	seen := make(map[[2]int]float64, len(entries)*2)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, n, n)
		}
		keep := func(r, c int, v float64) {
			key := [2]int{r, c}
			if old, ok := seen[key]; !ok || abs(v) > abs(old) {
				seen[key] = v
			}
		}
		keep(e.Row, e.Col, e.Val)
		keep(e.Col, e.Row, e.Val)
	}
	out := make([]Triplet, 0, len(seen))
	for key, v := range seen {
		//lint:ignore maporder NewCSR sorts the triplets by (row,col) before assembly and the keys are unique, so append order cannot reach the output
		out = append(out, Triplet{key[0], key[1], v})
	}
	return NewCSR(n, out)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// NewCSRFromRaw wraps pre-assembled CSR storage without copying: rowPtr
// must be a monotone n+1 prefix array, and every row's cols must be
// strictly ascending and in [0, n). The sparse Gram emit path
// (internal/kernel) builds its rows already sorted, so this constructor
// skips NewCSR's O(nnz log nnz) triplet sort.
func NewCSRFromRaw(n int, rowPtr []int, cols []int, vals []float64) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d", n)
	}
	if len(rowPtr) != n+1 || rowPtr[0] != 0 || rowPtr[n] != len(cols) || len(cols) != len(vals) {
		return nil, fmt.Errorf("sparse: raw shape rowPtr=%d cols=%d vals=%d for n=%d",
			len(rowPtr), len(cols), len(vals), n)
	}
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi {
			return nil, fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
		for idx := lo; idx < hi; idx++ {
			c := cols[idx]
			if c < 0 || c >= n {
				return nil, fmt.Errorf("sparse: column %d outside %d at row %d", c, n, i)
			}
			if idx > lo && cols[idx-1] >= c {
				return nil, fmt.Errorf("sparse: columns not strictly ascending at row %d", i)
			}
		}
	}
	return &CSR{n: n, rowPtr: rowPtr, cols: cols, vals: vals}, nil
}

// N returns the dimension.
func (m *CSR) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// Bytes models storage at 4 bytes per value plus 4 per column index,
// the accounting the paper's Figure 6(b) uses for sparse baselines.
func (m *CSR) Bytes() int64 { return int64(m.NNZ()) * 8 }

// At returns the (i,j) entry (zero when absent).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		matrix.Panicf("sparse: index (%d,%d) out of range %d", i, j, m.n)
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := lo + sort.SearchInts(m.cols[lo:hi], j)
	if idx < hi && m.cols[idx] == j {
		return m.vals[idx]
	}
	return 0
}

const (
	// mulVecBlockRows is the fixed row-block edge of the parallel
	// matrix-vector product. Blocks are fixed-size, so the work
	// decomposition — and therefore every row's result bits — never
	// depends on parallelism.
	mulVecBlockRows = 512
	// mulVecParallelCutoff is the stored-entry count below which the
	// goroutine handoff costs more than the multiply.
	mulVecParallelCutoff = 1 << 15
)

// MulVec computes dst = M*src. Lengths must equal N. Large products are
// computed in parallel over fixed row blocks; each row is a sequential
// accumulation over its stored entries, so the output is bitwise
// identical at every GOMAXPROCS — the property the Lanczos determinism
// argument (DESIGN.md, "Solve engine") rests on. MulVec allocates only
// par's few words of loop state, making it safe as a linalg.Op inner
// loop.
func (m *CSR) MulVec(dst, src []float64) error {
	if len(dst) != m.n || len(src) != m.n {
		return errors.New("sparse: MulVec length mismatch")
	}
	nb := (m.n + mulVecBlockRows - 1) / mulVecBlockRows
	limit := nb
	if m.NNZ() < mulVecParallelCutoff {
		limit = 1
	}
	return par.Each(nb, limit, func(b int) error {
		lo := b * mulVecBlockRows
		m.mulVecRange(dst, src, lo, min(lo+mulVecBlockRows, m.n))
		return nil
	})
}

// mulVecRange computes rows [lo, hi) of M*src into dst.
func (m *CSR) mulVecRange(dst, src []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		cols := m.cols[start:end]
		vals := m.vals[start:end]
		var s float64
		for idx, c := range cols {
			s += vals[idx] * src[c]
		}
		dst[i] = s
	}
}

// RowSums returns the vector of row sums (degrees for affinity graphs).
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		var s float64
		for idx := m.rowPtr[i]; idx < m.rowPtr[i+1]; idx++ {
			s += m.vals[idx]
		}
		out[i] = s
	}
	return out
}

// ScaleSym multiplies entry (i,j) by d[i]*d[j], overwriting the stored
// values — the sparse analogue of matrix.Sym.ScaleSym, grouped
// v*(d[i]*d[j]) as it is, so the two agree bit for bit on shared
// entries. For d = matrix.InvSqrt(RowSums()) the matrix becomes the
// normalized Laplacian of Eq. 2.
func (m *CSR) ScaleSym(d []float64) error {
	if len(d) != m.n {
		return errors.New("sparse: ScaleSym length mismatch")
	}
	for i := 0; i < m.n; i++ {
		di := d[i]
		for idx := m.rowPtr[i]; idx < m.rowPtr[i+1]; idx++ {
			m.vals[idx] *= di * d[m.cols[idx]]
		}
	}
	return nil
}

// Dense materializes the matrix (tests and small problems only).
func (m *CSR) Dense() *matrix.Dense {
	out := matrix.NewDense(m.n, m.n)
	for i := 0; i < m.n; i++ {
		row := out.Row(i)
		for idx := m.rowPtr[i]; idx < m.rowPtr[i+1]; idx++ {
			row[m.cols[idx]] = m.vals[idx]
		}
	}
	return out
}

// Fill returns the stored-entry fraction nnz/n² — the quantity the
// adaptive solver policy thresholds on. An empty matrix has fill 0.
func (m *CSR) Fill() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.n) * float64(m.n))
}

// IsSymmetric reports whether the stored pattern and values are
// symmetric within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.n; i++ {
		for idx := m.rowPtr[i]; idx < m.rowPtr[i+1]; idx++ {
			j := m.cols[idx]
			d := m.vals[idx] - m.At(j, i)
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}
