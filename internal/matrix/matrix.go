// Package matrix provides dense row-major matrices and the small set of
// vector and matrix operations the DASC pipeline needs: products,
// transposes, diagonal scalings, norms and symmetric checks.
//
// The package is deliberately minimal — it is a substrate for the
// spectral-clustering stack, not a general linear-algebra library.
// Hot paths (Gram construction, Laplacian scaling, eigen iterations)
// avoid per-element bounds recomputation by operating on row slices.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64 values.
// The zero value is an empty 0x0 matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows x cols matrix of zeros.
// It panics if either dimension is negative.
func NewDense(rows, cols int) *Dense {
	checkDims(rows, cols)
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps an existing backing slice as a rows x cols matrix.
// The slice is used directly (not copied); len(data) must be rows*cols.
func NewDenseData(rows, cols int, data []float64) (*Dense, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: negative dimension %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("matrix: data length %d != %d*%d", len(data), rows, cols)
	}
	return &Dense{rows: rows, cols: cols, data: data}, nil
}

// FromRows builds a matrix by copying the given rows.
// All rows must have equal length; an empty input yields a 0x0 matrix.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: row %d has length %d, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	m.checkRow(i)
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	m.checkCol(j)
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Data returns the backing slice in row-major order. Mutations are visible.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// ErrShape reports incompatible operand dimensions.
var ErrShape = errors.New("matrix: incompatible shapes")

// Mul returns the product a*b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense(a.rows, b.cols)
	// ikj loop order: stream through b's rows for cache friendliness.
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if IsZero(av) {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns m*x for a column vector x (len(x) == Cols()).
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrShape, m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Frobenius returns the Frobenius norm sqrt(sum a_ij^2).
// Partial sums are accumulated in a scaled form to avoid overflow for
// very large entries, mirroring the classic hypot trick.
func (m *Dense) Frobenius() float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range m.data {
		if IsZero(v) {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// IsSymmetric reports whether |a_ij - a_ji| <= tol for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// Equal reports whether a and b have the same shape and all elements
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense(%dx%d)", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return sb.String()
	}
	sb.WriteString("[")
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.4g", m.data[i*m.cols+j])
		}
	}
	sb.WriteString("]")
	return sb.String()
}
