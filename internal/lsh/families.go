package lsh

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/matrix"
)

// Family is the interface every locality-sensitive hashing scheme in
// this package satisfies. The paper's own hash is the span/threshold
// Hasher; §3.2 says the authors "studied various LSH families,
// including random projection, stable distributions, and Min-Wise
// Independent Permutations", and §5.1 suggests data-dependent spectral
// hashing for skewed data. The families that run beside it are SimHash
// and Spectral, which the ablation compares against the Hasher, and
// MinHash, which examples/shingles and dasc.MinHashLSH use for sparse
// documents.
type Family interface {
	// Signature maps a point to its M-bit signature.
	Signature(x []float64) uint64
	// Bits returns the signature width M.
	Bits() int
}

var _ Family = (*Hasher)(nil)

// MarginFamily is a Family that can report how confidently each
// signature bit was decided: margins[i] is the distance of the point to
// bit i's decision boundary, in the family's own projection units. The
// multi-probe generator flips low-margin bits first; a family without a
// meaningful margin (MinHash) falls back to a plain Hamming-ball probe
// order.
type MarginFamily interface {
	Family
	// SignatureMargins computes the signature and fills margins[0:Bits()]
	// with each bit's decision-boundary distance. margins must have at
	// least Bits() capacity.
	SignatureMargins(x []float64, margins []float64) uint64
}

// Refittable is a Family that can derive an independent sibling for an
// additional ensemble table: Refit(t) must return a family drawn from a
// t-derived seed so that tables hash independently. Families fitted
// from data (the span/threshold Hasher) are refitted by FitEnsemble
// instead and do not need this.
type Refittable interface {
	Family
	Refit(table int) (Family, error)
}

// PartitionWith hashes every row of points with the family and builds
// the merged bucket partition: points are grouped by exact signature,
// then buckets whose signatures are within maxHamming bits of each other
// merge (the paper merges at Hamming distance <= M-P with P = M-1, i.e.
// distance 1, so the Eq. 6 constant-time test applies; larger radii fall
// back to a popcount comparison); maxHamming < 0 disables merging. An
// *Ensemble family runs its full multi-table, multi-probe partition.
func PartitionWith(f Family, points PointSource, maxHamming int) *Partition {
	if e, ok := f.(*Ensemble); ok {
		part, err := e.Partition(points, e.Hash(points), maxHamming)
		if err != nil {
			// The signature set was built by this ensemble, so shape
			// errors cannot occur; matrix.Panicf keeps the package
			// panic-free lint contract explicit.
			matrix.Panicf("lsh: ensemble partition: %v", err)
		}
		return part
	}
	n := points.Rows()
	sigs := make([]uint64, n)
	for i := 0; i < n; i++ {
		sigs[i] = f.Signature(points.Row(i))
	}
	return PartitionSignatures(sigs, maxHamming)
}

// ---- SimHash: Charikar's random hyperplane rounding ----

// SimHash is the classic random-projection family of Charikar (the
// paper's reference [2]): bit i is the sign of the inner product with a
// random Gaussian direction, taken around the data mean so that bits
// split the mass rather than the origin.
type SimHash struct {
	planes *matrix.Dense // M x d
	center []float64
}

// FitSimHash draws m Gaussian hyperplanes for d-dimensional data and
// centers them on the dataset mean.
func FitSimHash(points *matrix.Dense, m int, seed int64) (*SimHash, error) {
	n, d := points.Rows(), points.Cols()
	if n == 0 || d == 0 {
		return nil, errors.New("lsh: empty dataset")
	}
	if m < 1 || m > MaxBits {
		return nil, fmt.Errorf("lsh: M=%d out of range [1,%d]", m, MaxBits)
	}
	rng := rand.New(rand.NewSource(seed))
	planes := matrix.NewDense(m, d)
	for i := range planes.Data() {
		planes.Data()[i] = rng.NormFloat64()
	}
	center := make([]float64, d)
	for i := 0; i < n; i++ {
		matrix.AXPY(1, points.Row(i), center)
	}
	matrix.ScaleVec(1/float64(n), center)
	return &SimHash{planes: planes, center: center}, nil
}

// Bits implements Family.
func (s *SimHash) Bits() int { return s.planes.Rows() }

// Signature implements Family.
func (s *SimHash) Signature(x []float64) uint64 {
	return s.SignatureMargins(x, nil)
}

// SignatureMargins implements MarginFamily: a bit's margin is the
// absolute centered projection onto its hyperplane.
func (s *SimHash) SignatureMargins(x []float64, margins []float64) uint64 {
	var sig uint64
	for i := 0; i < s.planes.Rows(); i++ {
		plane := s.planes.Row(i)
		var dot float64
		for j, v := range plane {
			dot += float64(v * (x[j] - s.center[j])) // rounded, never fused
		}
		if dot >= 0 {
			sig |= 1 << uint(i)
		}
		if margins != nil {
			margins[i] = math.Abs(dot)
		}
	}
	return sig
}

// ---- 1-bit MinHash over nonzero support ----

// MinHash implements b-bit (b=1) min-wise independent permutations over
// the set of nonzero feature indices — the natural reading of the
// paper's Min-Wise family for sparse tf-idf documents. Bit i is the
// parity of the minimum hash of the support under permutation i, so
// signatures remain Hamming-comparable.
type MinHash struct {
	a, b []uint64
	seed int64
}

// FitMinHash draws m universal-hash permutations.
func FitMinHash(m int, seed int64) (*MinHash, error) {
	if m < 1 || m > MaxBits {
		return nil, fmt.Errorf("lsh: M=%d out of range [1,%d]", m, MaxBits)
	}
	rng := rand.New(rand.NewSource(seed))
	mh := &MinHash{a: make([]uint64, m), b: make([]uint64, m), seed: seed}
	for i := 0; i < m; i++ {
		mh.a[i] = uint64(rng.Int63())<<1 | 1 // odd multiplier
		mh.b[i] = uint64(rng.Int63())
	}
	return mh, nil
}

// Refit implements Refittable: table t draws its permutations from a
// t-derived seed, so ensemble tables hash independently. MinHash has no
// per-bit margin, so probing falls back to the Hamming ball.
func (mh *MinHash) Refit(table int) (Family, error) {
	return FitMinHash(len(mh.a), mh.seed+int64(table)*ensembleSeedStride)
}

// Bits implements Family.
func (mh *MinHash) Bits() int { return len(mh.a) }

// Signature implements Family. Points with empty support hash to 0.
func (mh *MinHash) Signature(x []float64) uint64 {
	var sig uint64
	for i := range mh.a {
		min := uint64(math.MaxUint64)
		seen := false
		for j, v := range x {
			if matrix.IsZero(v) {
				continue
			}
			seen = true
			h := mh.a[i]*uint64(j) + mh.b[i]
			if h < min {
				min = h
			}
		}
		if seen && min>>13&1 == 1 { // a middle bit: low bits of a*j+b are biased
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// ---- Spectral hashing (data-dependent, balanced) ----

// Spectral is the data-dependent family the paper points to for skewed
// distributions (§5.1): bits threshold the projections onto the data's
// principal directions at their medians, which balances every bit by
// construction and decorrelates the splits.
type Spectral struct {
	directions *matrix.Dense // M x d principal directions
	medians    []float64
	center     []float64
}

// FitSpectral computes the top-m principal directions of the data by
// power iteration with deflation and places each threshold at the
// median projection.
func FitSpectral(points *matrix.Dense, m int, seed int64) (*Spectral, error) {
	n, d := points.Rows(), points.Cols()
	if n == 0 || d == 0 {
		return nil, errors.New("lsh: empty dataset")
	}
	if m < 1 || m > MaxBits {
		return nil, fmt.Errorf("lsh: M=%d out of range [1,%d]", m, MaxBits)
	}
	if m > d {
		m = d
	}
	center := make([]float64, d)
	for i := 0; i < n; i++ {
		matrix.AXPY(1, points.Row(i), center)
	}
	matrix.ScaleVec(1/float64(n), center)

	rng := rand.New(rand.NewSource(seed))
	dirs := matrix.NewDense(m, d)
	centered := make([][]float64, n)
	for i := range centered {
		row := append([]float64(nil), points.Row(i)...)
		matrix.AXPY(-1, center, row)
		centered[i] = row
	}
	// Power iteration with Gram-Schmidt deflation against earlier
	// directions; the covariance never materializes.
	proj := make([]float64, n)
	for c := 0; c < m; c++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for iter := 0; iter < 50; iter++ {
			// v <- Cov * v = X^T (X v) / n, deflated.
			for i, row := range centered {
				proj[i] = matrix.Dot(row, v)
			}
			next := make([]float64, d)
			for i, row := range centered {
				matrix.AXPY(proj[i], row, next)
			}
			for prev := 0; prev < c; prev++ {
				p := dirs.Row(prev)
				matrix.AXPY(-matrix.Dot(next, p), p, next)
			}
			if matrix.IsZero(matrix.Normalize(next)) {
				break
			}
			copy(v, next)
		}
		copy(dirs.Row(c), v)
	}

	medians := make([]float64, m)
	vals := make([]float64, n)
	for c := 0; c < m; c++ {
		dir := dirs.Row(c)
		for i, row := range centered {
			vals[i] = matrix.Dot(row, dir)
		}
		sort.Float64s(vals)
		medians[c] = vals[n/2]
	}
	return &Spectral{directions: dirs, medians: medians, center: center}, nil
}

// Bits implements Family.
func (s *Spectral) Bits() int { return s.directions.Rows() }

// Signature implements Family.
func (s *Spectral) Signature(x []float64) uint64 {
	return s.SignatureMargins(x, nil)
}

// SignatureMargins implements MarginFamily: a bit's margin is the
// distance of the principal-direction projection to its median split.
func (s *Spectral) SignatureMargins(x []float64, margins []float64) uint64 {
	var sig uint64
	for i := 0; i < s.directions.Rows(); i++ {
		dir := s.directions.Row(i)
		var dot float64
		for j, v := range dir {
			dot += float64(v * (x[j] - s.center[j])) // rounded, never fused
		}
		if dot > s.medians[i] {
			sig |= 1 << uint(i)
		}
		if margins != nil {
			margins[i] = math.Abs(dot - s.medians[i])
		}
	}
	return sig
}
