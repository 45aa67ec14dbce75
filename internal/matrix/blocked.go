package matrix

// This file holds the cache-blocked micro-kernels under the Gram engine
// (internal/kernel), the Lanczos mat-vec and k-means: contiguous row
// gathering, a blocked pairwise-dot routine and blocked squared
// distances. Each output of a blocked routine is summed in the same
// single ascending chain as its one-pair form (Dot, SqDist), so a value
// never depends on the tile or tail loop that produced it.

// GatherRows copies the listed rows of m into dst as a contiguous
// row-major block of len(indices) rows, growing dst if needed, and
// returns the (re)sliced buffer. Row indices are bounds-checked by Row.
// Gathering a bucket's rows once turns the per-pair strided accesses of
// a sub-Gram computation into sequential scans of one compact block.
func GatherRows(dst []float64, m *Dense, indices []int) []float64 {
	d := m.cols
	need := len(indices) * d
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	for k, idx := range indices {
		copy(dst[k*d:(k+1)*d], m.Row(idx))
	}
	return dst
}

// DotBlock computes the pairwise dot products between the rows of two
// contiguous row-major blocks a (ra x d) and b (rb x d), writing
// out[i*rb+j] = a_i · b_j, bit for bit Dot(a_i, b_j): the 1x4 micro-tile
// keeps four columns in flight, each its own ascending chain, and the
// ragged tail calls Dot. It is the innermost routine of the blocked Gram
// engine: both blocks are small enough to stay cache-resident while
// every cross pair is formed. out must have length ra*rb.
func DotBlock(a []float64, ra int, b []float64, rb, d int, out []float64) {
	if len(a) != ra*d || len(b) != rb*d {
		Panicf("matrix: DotBlock shapes %d=%dx%d %d=%dx%d", len(a), ra, d, len(b), rb, d)
	}
	if len(out) != ra*rb {
		Panicf("matrix: DotBlock out length %d, want %d", len(out), ra*rb)
	}
	for i := 0; i < ra; i++ {
		arow := a[i*d : (i+1)*d]
		orow := out[i*rb : (i+1)*rb]
		// 1x4 micro-tile: four b-rows per pass, so every element of
		// arow is loaded once per four products and the four
		// accumulation chains run in parallel.
		j := 0
		for ; j+4 <= rb; j += 4 {
			b0 := b[(j+0)*d : (j+1)*d][:len(arow)]
			b1 := b[(j+1)*d : (j+2)*d][:len(arow)]
			b2 := b[(j+2)*d : (j+3)*d][:len(arow)]
			b3 := b[(j+3)*d : (j+4)*d][:len(arow)]
			var s0, s1, s2, s3 float64
			for t, av := range arow {
				s0 += av * b0[t]
				s1 += av * b1[t]
				s2 += av * b2[t]
				s3 += av * b3[t]
			}
			orow[j] = s0
			orow[j+1] = s1
			orow[j+2] = s2
			orow[j+3] = s3
		}
		for ; j < rb; j++ {
			orow[j] = Dot(arow, b[j*d:(j+1)*d])
		}
	}
}

// SqDistBlock writes out[j] = SqDist(x, b_j) for the rb rows of the
// contiguous row-major block b (rb x len(x)). Four rows are processed
// per pass with one accumulation chain each, and every chain is the
// same `d := x[t] - b[t]; s += d * d` sequence in ascending t as
// SqDist, so each output is bit-for-bit the single-pair value — only
// the instruction-level parallelism changes (any FMA contraction the
// compiler applies, it applies to the same expression in both). out
// must have length rb.
func SqDistBlock(x, b []float64, rb int, out []float64) {
	d := len(x)
	if len(b) != rb*d || len(out) != rb {
		Panicf("matrix: SqDistBlock shapes x=%d b=%d=%dx%d out=%d", d, len(b), rb, d, len(out))
	}
	j := 0
	for ; j+4 <= rb; j += 4 {
		b0 := b[(j+0)*d : (j+1)*d][:len(x)]
		b1 := b[(j+1)*d : (j+2)*d][:len(x)]
		b2 := b[(j+2)*d : (j+3)*d][:len(x)]
		b3 := b[(j+3)*d : (j+4)*d][:len(x)]
		var s0, s1, s2, s3 float64
		for t, xv := range x {
			d0 := xv - b0[t]
			s0 += d0 * d0
			d1 := xv - b1[t]
			s1 += d1 * d1
			d2 := xv - b2[t]
			s2 += d2 * d2
			d3 := xv - b3[t]
			s3 += d3 * d3
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < rb; j++ {
		out[j] = SqDist(x, b[j*d:(j+1)*d])
	}
}

// SqDist4 is the gathered form of SqDistBlock's micro-tile: four
// independent pairs (x0,y0) … (x3,y3) of one common length, anywhere in
// memory, one SqDist-identical accumulation chain each. One row against
// four scattered rows is the x0 = x1 = x2 = x3 case.
func SqDist4(x0, y0, x1, y1, x2, y2, x3, y3 []float64) (s0, s1, s2, s3 float64) {
	n := len(x0)
	if len(y0) != n || len(x1) != n || len(y1) != n || len(x2) != n || len(y2) != n || len(x3) != n || len(y3) != n {
		Panicf("matrix: SqDist4 length mismatch %d: %d %d %d %d %d %d %d",
			n, len(y0), len(x1), len(y1), len(x2), len(y2), len(x3), len(y3))
	}
	y0, x1, y1, x2, y2, x3, y3 = y0[:n], x1[:n], y1[:n], x2[:n], y2[:n], x3[:n], y3[:n]
	for t, xv := range x0 {
		d0 := xv - y0[t]
		s0 += d0 * d0
		d1 := x1[t] - y1[t]
		s1 += d1 * d1
		d2 := x2[t] - y2[t]
		s2 += d2 * d2
		d3 := x3[t] - y3[t]
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}
