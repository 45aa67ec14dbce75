package kernel

// This file is the rectangular half of the blocked Gram engine: a
// cross-kernel block k(a_i, b_j) between the rows of two matrices,
// which the Nyström algebra (spectral.ClusterLandmarkRows, run by the
// in-bucket landmark solve and the NYST baseline) needs twice: the m×m
// landmark block W and the n×m cross block C. It shares
// the fast.go recipe — precomputed squared row norms plus blocked
// pairwise dot products over contiguous storage — but with one extra
// contract the symmetric engine does not make:
//
// Bit-uniformity. Every inner product (the two norms and the cross dot)
// is accumulated in a single ascending-index chain, in every block
// position, including the 1×4 micro-tile (whose four accumulators are
// each a single chain over one column) and the ragged tail. A value of
// the block is therefore exactly
//
//	exp(-(‖a_i‖² + ‖b_j‖² − 2·a_i·b_j) / (2σ²))
//
// evaluated with plain left-to-right sums — byte-identical to a scalar
// per-pair loop over the same factorized formula, regardless of block
// shape, tile position, or goroutine count. Tests pin the block to that
// scalar reference bit for bit.

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/par"
)

// CrossGramInto fills dst (a.Rows() × b.Rows()) with the kernel value of
// every cross pair k(a_i, b_j). The Gaussian takes the blocked fast
// path above; any other Kernel falls back to one Eval per pair. Large
// blocks fan out over a deterministic block decomposition, and every
// path is bit-independent of how many goroutines ran it. Unlike the
// symmetric Gram engine the diagonal is NOT special-cased: entry (i,j)
// is always the kernel of the two rows, so self pairs yield k(x,x) (1
// for the Gaussian), which is what the Nyström blocks require.
func CrossGramInto(dst *matrix.Dense, a, b *matrix.Dense, k Kernel) error {
	ra, rb := a.Rows(), b.Rows()
	if dst.Rows() != ra || dst.Cols() != rb {
		return fmt.Errorf("kernel: cross block %dx%d for %dx%d rows", dst.Rows(), dst.Cols(), ra, rb)
	}
	if ra == 0 || rb == 0 {
		return nil
	}
	if a.Cols() != b.Cols() {
		return fmt.Errorf("kernel: cross operands have %d and %d columns", a.Cols(), b.Cols())
	}
	kind, inv := recognize(k)
	if kind == kindGeneric {
		return genericCrossInto(dst, a, b, k)
	}
	d := a.Cols()
	ad, bd := a.Data(), b.Data()

	sqaTok, sqa := getScratch(ra)
	defer putScratch(sqaTok)
	sqbTok, sqb := getScratch(rb)
	defer putScratch(sqbTok)
	for i := 0; i < ra; i++ {
		sqa[i] = chainDot(ad[i*d:(i+1)*d], ad[i*d:(i+1)*d])
	}
	for j := 0; j < rb; j++ {
		sqb[j] = chainDot(bd[j*d:(j+1)*d], bd[j*d:(j+1)*d])
	}

	// Deterministic decomposition into blockRows-edged tiles.
	na := (ra + blockRows - 1) / blockRows
	nb := (rb + blockRows - 1) / blockRows
	type blockPair struct{ bi, bj int }
	pairs := make([]blockPair, 0, na*nb)
	for bi := 0; bi < na; bi++ {
		for bj := 0; bj < nb; bj++ {
			pairs = append(pairs, blockPair{bi, bj})
		}
	}

	dd := dst.Data()
	oneBlock := func(p blockPair, dots []float64) {
		i0, i1 := p.bi*blockRows, min(ra, (p.bi+1)*blockRows)
		j0, j1 := p.bj*blockRows, min(rb, (p.bj+1)*blockRows)
		nr, nc := i1-i0, j1-j0
		dots = dots[:nr*nc]
		chainDotBlock(ad[i0*d:i1*d], nr, bd[j0*d:j1*d], nc, d, dots)
		for i := i0; i < i1; i++ {
			row := dd[i*rb : (i+1)*rb]
			drow := dots[(i-i0)*nc:]
			switch kind {
			case kindGaussian:
				sqi := sqa[i]
				for j := j0; j < j1; j++ {
					d2 := sqi + sqb[j] - 2*drow[j-j0]
					if d2 < 0 {
						d2 = 0 // rounding can push a tiny distance negative
					}
					row[j] = math.Exp(-d2 * inv)
				}
			}
		}
	}

	return par.Workers(len(pairs), fanout(max(ra, rb), len(pairs)), func(next func() (int, bool)) error {
		tok, dots := getScratch(blockRows * blockRows)
		defer putScratch(tok)
		for i, ok := next(); ok; i, ok = next() {
			oneBlock(pairs[i], dots)
		}
		return nil
	})
}

// chainDot is the single ascending accumulation chain the cross engine
// standardizes on. It trades the 4-lane ILP of Dot4 for bit-uniformity:
// with one chain everywhere, a value never depends on which tile or
// tail loop produced it.
func chainDot(x, y []float64) float64 {
	var s float64
	for t, v := range x {
		s += v * y[t]
	}
	return s
}

// chainDotBlock is DotBlock's shape with single-chain accumulation: the
// 1×4 micro-tile keeps four independent columns in flight (each its own
// ascending chain), and the ragged tail runs chainDot, so every output
// is bitwise the plain left-to-right dot product.
func chainDotBlock(a []float64, ra int, b []float64, rb, d int, out []float64) {
	if len(a) != ra*d || len(b) != rb*d {
		matrix.Panicf("kernel: chainDotBlock shapes %d=%dx%d %d=%dx%d", len(a), ra, d, len(b), rb, d)
	}
	if len(out) != ra*rb {
		matrix.Panicf("kernel: chainDotBlock out length %d, want %d", len(out), ra*rb)
	}
	for i := 0; i < ra; i++ {
		arow := a[i*d : (i+1)*d]
		orow := out[i*rb : (i+1)*rb]
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
			orow[j] = chainDot(arow, b[j*d:(j+1)*d])
		}
	}
}

// genericCrossInto is the unrecognized-kernel fallback: one Eval per
// pair, fanned out over a-rows for large blocks.
func genericCrossInto(dst *matrix.Dense, a, b *matrix.Dense, k Kernel) error {
	ra, rb := a.Rows(), b.Rows()
	oneRow := func(i int) {
		xi := a.Row(i)
		row := dst.Row(i)
		for j := 0; j < rb; j++ {
			row[j] = k.Eval(xi, b.Row(j))
		}
	}
	return par.Each(ra, fanout(max(ra, rb), ra), func(i int) error {
		oneRow(i)
		return nil
	})
}
