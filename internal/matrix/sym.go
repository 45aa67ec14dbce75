package matrix

import "fmt"

// Sym is a symmetric n x n matrix seen through its upper triangle: row
// segment i is row i from column i on, n−i entries, and entry (i, j),
// j ≥ i, is Row(i)[j−i]. The same view works over two storages:
//
//   - packed, the segments back to back in PackedLen(n) = n(n+1)/2
//     float64s (segment i at offset i·n − i(i−1)/2), so a similarity
//     matrix costs 4·n² + 4·n bytes — the paper's Eq. 12 figure plus the
//     diagonal — instead of 8·n²;
//   - a full row-major n x n matrix's upper triangle (segment i at
//     offset i·n + i), whose lower triangle the view reads nowhere:
//     Dense mirrors into it, and a fill loop can store it through Lower.
//
// RowSums, ScaleSym and MulVec read each stored entry once and do
// identical arithmetic over either storage, so the two give the same
// bits.
type Sym struct {
	n    int
	data []float64
	full *Dense // the viewed matrix; nil for packed storage
}

// PackedLen is the float64 count of a packed n x n triangle, n(n+1)/2.
func PackedLen(n int) int { return n * (n + 1) / 2 }

// NewPackedSym wraps data (not copied) as packed n x n symmetric
// storage; len(data) must be PackedLen(n).
func NewPackedSym(n int, data []float64) (*Sym, error) {
	if n < 0 || len(data) != PackedLen(n) {
		return nil, fmt.Errorf("%w: packed %dx%d needs %d entries, have %d", ErrShape, n, n, PackedLen(max(n, 0)), len(data))
	}
	return &Sym{n: n, data: data}, nil
}

// UpperSym views the upper triangle of the square matrix m (not copied).
func UpperSym(m *Dense) (*Sym, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: symmetric view of %dx%d", ErrShape, m.rows, m.cols)
	}
	return &Sym{n: m.rows, data: m.data, full: m}, nil
}

// N returns the dimension.
func (s *Sym) N() int { return s.n }

// Row returns row i from column i on, aliasing the storage.
func (s *Sym) Row(i int) []float64 {
	if i < 0 || i >= s.n {
		Panicf("matrix: symmetric row %d out of range %d", i, s.n)
	}
	o := i*s.n + i
	if s.full == nil {
		o = i*s.n - i*(i-1)/2
	}
	return s.data[o : o+s.n-i]
}

// RowSums returns the degrees of Eq. 2's D, the row sums of S: MulVec
// against the all-ones vector, so row i is summed in one chain in
// ascending column order, as a plain loop over the mirrored matrix's
// row sums it.
func (s *Sym) RowSums() []float64 {
	ones := make([]float64, s.n)
	for i := range ones {
		ones[i] = 1
	}
	d := make([]float64, s.n)
	s.MulVec(d, ones)
	return d
}

// ScaleSym computes D * S * D in place, where D is diag(d): entry
// (i, j) becomes s_ij·(d_i·d_j). For d = InvSqrt(RowSums()) this is the
// normalized Laplacian of Eq. 2. It panics if len(d) differs from N.
func (s *Sym) ScaleSym(d []float64) {
	if len(d) != s.n {
		Panicf("matrix: diag(%d) scale of symmetric %d", len(d), s.n)
	}
	for i := 0; i < s.n; i++ {
		di := d[i]
		dj := d[i:]
		row := s.Row(i)
		for t := range row {
			row[t] *= di * dj[t]
		}
	}
}

// MulVec writes y = S·x, reading each stored entry once: y_i is
// accumulated in a register over row i's segment, y_j is scattered.
// Every output is one chain in ascending column order — the order of
// Dot over the mirrored matrix's row, and so of the dense product
// DotBlock(x, 1, a, n, n, y) — so packed storage, full storage and the
// dense product agree bit for bit. Rows run four at a time: the 4 x 4
// corner on the diagonal row by row, then one pass over the columns
// right of it that carries the four row sums and adds the four
// scattered terms to each y_j in row order, which is what keeps every
// y_j in ascending column order. y and x have length n and must not
// alias.
func (s *Sym) MulVec(y, x []float64) {
	n := s.n
	if len(y) != n || len(x) != n {
		Panicf("matrix: symmetric %d MulVec dst %d x %d", n, len(y), len(x))
	}
	clear(y)
	nt := n &^ 3
	for i0 := 0; i0 < nt; i0 += 4 {
		var acc [4]float64
		for a := 0; a < 4; a++ {
			i := i0 + a
			row, xi := s.Row(i), x[i]
			acc[a] = y[i]
			for t, v := range row[:4-a] {
				acc[a] += v * x[i+t]
				if t > 0 {
					y[i+t] += v * xi
				}
			}
		}
		r0, r1, r2, r3 := s.Row(i0)[4:], s.Row(i0 + 1)[3:], s.Row(i0 + 2)[2:], s.Row(i0 + 3)[1:]
		x0, x1, x2, x3 := x[i0], x[i0+1], x[i0+2], x[i0+3]
		a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
		xs := x[i0+4:]
		ys, h0, h1, h2, h3 := y[i0+4:][:len(xs)], r0[:len(xs)], r1[:len(xs)], r2[:len(xs)], r3[:len(xs)]
		for t, xj := range xs {
			v0, v1, v2, v3 := h0[t], h1[t], h2[t], h3[t]
			a0 += v0 * xj
			a1 += v1 * xj
			a2 += v2 * xj
			a3 += v3 * xj
			ys[t] = ys[t] + v0*x0 + v1*x1 + v2*x2 + v3*x3
		}
		y[i0], y[i0+1], y[i0+2], y[i0+3] = a0, a1, a2, a3
	}
	for i := nt; i < n; i++ {
		row, xi := s.Row(i), x[i]
		acc := y[i]
		for t, v := range row {
			acc += v * x[i+t]
			if t > 0 {
				y[i+t] += v * xi
			}
		}
		y[i] = acc
	}
}

// Dense returns the full symmetric matrix: for a view over a matrix,
// that matrix with its lower triangle rewritten from the upper one; for
// packed storage, a new n x n.
func (s *Sym) Dense() *Dense {
	m := s.full
	if m == nil {
		m = NewDense(s.n, s.n)
		for i := 0; i < s.n; i++ {
			copy(m.data[i*s.n+i:(i+1)*s.n], s.Row(i))
		}
	}
	n, d := s.n, m.data
	for i := 0; i < n; i++ {
		for t, v := range d[i*n+i+1 : (i+1)*n] {
			d[(i+1+t)*n+i] = v
		}
	}
	return m
}

// Lower returns, for a view over a full matrix, its storage from entry
// (j, i) on, j > i, so that the mirror of entry (i, j+t) is at [t·n]: a
// fill loop stores both triangles in one pass. Packed storage has no
// lower triangle, and j ≥ n names no entry; both return nil.
func (s *Sym) Lower(i, j int) []float64 {
	if s.full == nil || j >= s.n {
		return nil
	}
	if i < 0 || j <= i {
		Panicf("matrix: lower-triangle entry (%d,%d)", j, i)
	}
	return s.data[j*s.n+i:]
}
