// Package lsh implements the locality-sensitive hashing front-end of
// DASC (paper §3.2 and §4.2): span-weighted selection of hashing
// dimensions, histogram-valley thresholds (Eq. 5), M-bit random-
// projection signatures, grouping of points into signature buckets, and
// merging of buckets whose signatures are near-duplicates (Eq. 6).
package lsh

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/matrix"
)

// DimensionPolicy selects how hashing dimensions are chosen.
type DimensionPolicy int

const (
	// TopSpan deterministically picks the M dimensions with the largest
	// numerical span (paper §4.2: "pick the dimensions with highest M
	// spans for applying the hash function").
	TopSpan DimensionPolicy = iota
	// SpanWeighted samples dimensions with probability proportional to
	// their span (paper Eq. 4), with replacement across hash functions.
	SpanWeighted
	// Uniform samples dimensions uniformly at random; exists only as an
	// ablation baseline for the span heuristic.
	Uniform
)

func (p DimensionPolicy) String() string {
	switch p {
	case TopSpan:
		return "top-span"
	case SpanWeighted:
		return "span-weighted"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("DimensionPolicy(%d)", int(p))
	}
}

// MaxBits is the largest supported signature width. Signatures are
// packed into a uint64, which covers the paper's regime comfortably
// (M = log2(N)/2 - 1 stays below 32 even at N = 2^64).
const MaxBits = 64

// Config controls signature generation.
type Config struct {
	// M is the number of signature bits (hash functions). If zero,
	// DefaultM(n) is used.
	M int
	// Policy selects the dimension-choice strategy (default TopSpan).
	Policy DimensionPolicy
	// Bins is the histogram resolution for threshold selection
	// (default 20, per Eq. 5).
	Bins int
	// Seed drives the randomized policies.
	Seed int64
}

// DefaultM returns the paper's signature width for a dataset of n
// points: M = ceil(log2(n)/2) - 1, clamped to [1, MaxBits].
func DefaultM(n int) int {
	if n < 2 {
		return 1
	}
	m := (bits.Len(uint(n-1))+1)/2 - 1
	if m < 1 {
		m = 1
	}
	if m > MaxBits {
		m = MaxBits
	}
	return m
}

// Hasher converts points to M-bit signatures. Bit i of a signature is 1
// when the point's value along dims[i] exceeds thresholds[i].
type Hasher struct {
	dims       []int
	thresholds []float64
}

// Bits returns the signature width M.
func (h *Hasher) Bits() int { return len(h.dims) }

// Dimensions returns the input dimension used by each hash function.
func (h *Hasher) Dimensions() []int { return append([]int(nil), h.dims...) }

// Thresholds returns the split threshold of each hash function.
func (h *Hasher) Thresholds() []float64 { return append([]float64(nil), h.thresholds...) }

// NewHasher rebuilds a Hasher from fitted parameters — what a MapReduce
// worker does with the dimensions and thresholds its job configuration
// ships. The slices are copied. Signature indexes a row by every
// dimension unchecked, so a caller hashing rows it did not fit on must
// first hold them to the largest dimension.
func NewHasher(dims []int, thresholds []float64) (*Hasher, error) {
	if len(dims) == 0 || len(dims) > MaxBits || len(dims) != len(thresholds) {
		return nil, fmt.Errorf("lsh: hasher with %d dimensions and %d thresholds (want 1..%d of each)",
			len(dims), len(thresholds), MaxBits)
	}
	for _, dim := range dims {
		if dim < 0 {
			return nil, fmt.Errorf("lsh: negative hash dimension %d", dim)
		}
	}
	return &Hasher{dims: append([]int(nil), dims...), thresholds: append([]float64(nil), thresholds...)}, nil
}

// Fit builds a Hasher from the dataset, choosing dimensions and
// thresholds per the configured policy. It returns an error for empty
// datasets or out-of-range configuration.
func Fit(points *matrix.Dense, cfg Config) (*Hasher, error) {
	n, d := points.Rows(), points.Cols()
	if n == 0 || d == 0 {
		return nil, errors.New("lsh: empty dataset")
	}
	m := cfg.M
	if m == 0 {
		m = DefaultM(n)
	}
	if m < 1 || m > MaxBits {
		return nil, fmt.Errorf("lsh: M=%d out of range [1,%d]", m, MaxBits)
	}
	binCount := cfg.Bins
	if binCount == 0 {
		binCount = 20
	}
	if binCount < 2 {
		return nil, fmt.Errorf("lsh: Bins=%d must be >= 2", binCount)
	}

	mins, spans := dimensionSpans(points)
	dims, err := chooseDimensions(spans, m, cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}

	thresholds := make([]float64, m)
	for i, dim := range dims {
		thresholds[i] = valleyThreshold(points, dim, mins[dim], spans[dim], binCount)
	}
	return &Hasher{dims: dims, thresholds: thresholds}, nil
}

// dimensionSpans computes per-dimension min and span. The span
// used for dimension *ranking* is robust: the 5th-to-95th percentile
// range plus a small full-range tiebreak. On dense data this equals
// max-min (the paper's §3.2 definition); on sparse representations
// like tf-idf it stops a dimension that is nonzero in a handful of
// points from outranking a dimension that actually spreads the corpus
// — the paper's own rationale for the span heuristic ("dimensions in
// which data points are as spread out as possible").
func dimensionSpans(points *matrix.Dense) (mins, spans []float64) {
	n, d := points.Rows(), points.Cols()
	mins = make([]float64, d)
	maxs := make([]float64, d)
	copy(mins, points.Row(0))
	copy(maxs, points.Row(0))
	for i := 1; i < n; i++ {
		row := points.Row(i)
		for j, v := range row {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	spans = make([]float64, d)
	col := make([]float64, n)
	for j := range spans {
		full := maxs[j] - mins[j]
		if matrix.IsZero(full) {
			continue
		}
		for i := 0; i < n; i++ {
			col[i] = points.At(i, j)
		}
		// Two order statistics, not a full per-column sort: SelectKth
		// returns exactly the value sorting would place at that index.
		lo := matrix.SelectKth(col, int(0.05*float64(n-1)))
		hi := matrix.SelectKth(col, int(math.Ceil(0.95*float64(n-1))))
		spans[j] = (hi - lo) + 1e-6*full
	}
	return mins, spans
}

// chooseDimensions implements the three policies. TopSpan may choose a
// dimension at most once (wrapping around if m > d); the random
// policies sample with replacement, matching the paper's independent
// hash functions.
func chooseDimensions(spans []float64, m int, policy DimensionPolicy, seed int64) ([]int, error) {
	d := len(spans)
	dims := make([]int, m)
	switch policy {
	case TopSpan:
		order := make([]int, d)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return spans[order[a]] > spans[order[b]] })
		for i := 0; i < m; i++ {
			dims[i] = order[i%d]
		}
	case SpanWeighted:
		var total float64
		for _, s := range spans {
			total += s
		}
		rng := rand.New(rand.NewSource(seed))
		if total <= 0 {
			for i := range dims {
				dims[i] = rng.Intn(d)
			}
			return dims, nil
		}
		for i := range dims {
			r := rng.Float64() * total
			var acc float64
			pick := d - 1
			for j, s := range spans {
				acc += s
				if acc >= r {
					pick = j
					break
				}
			}
			dims[i] = pick
		}
	case Uniform:
		rng := rand.New(rand.NewSource(seed))
		for i := range dims {
			dims[i] = rng.Intn(d)
		}
	default:
		return nil, fmt.Errorf("lsh: unknown dimension policy %d", int(policy))
	}
	return dims, nil
}

// valleyThreshold builds a binCount-bin histogram of the data along dim
// and returns the lower edge of the emptiest bin (Eq. 5): the split
// point that cuts through the sparsest region of the distribution, so
// that few near neighbours straddle it.
//
// Deviation from the verbatim Eq. 5: the candidate bins are restricted
// to those whose edge splits off at least balanceMin of the points on
// each side. On multimodal data (the regime the heuristic was designed
// for) the inter-mode valley satisfies this and the behaviour is
// identical; on unimodal data the verbatim rule picks an extreme tail
// bin, which sends almost every point to the same signature and
// destroys the partition. If no balanced bin exists, the median is
// used.
func valleyThreshold(points *matrix.Dense, dim int, min, span float64, binCount int) float64 {
	if span <= 0 {
		return min // constant dimension: threshold is degenerate anyway
	}
	const balanceMin = 0.15
	bins := make([]int, binCount)
	n := points.Rows()
	width := span / float64(binCount)
	for i := 0; i < n; i++ {
		v := points.At(i, dim)
		b := int((v - min) / width)
		if b >= binCount {
			b = binCount - 1 // v == max lands in the top bin
		}
		if b < 0 {
			b = 0
		}
		bins[b]++
	}
	// below[j] = number of points strictly left of bin j's lower edge.
	below := make([]int, binCount)
	for j := 1; j < binCount; j++ {
		below[j] = below[j-1] + bins[j-1]
	}
	s := -1
	lo := int(balanceMin * float64(n))
	hi := n - lo
	for j := 1; j < binCount; j++ {
		if below[j] < lo || below[j] > hi {
			continue
		}
		if s == -1 || bins[j] < bins[s] {
			s = j
		}
	}
	if s >= 0 {
		return min + float64(s)*width
	}
	// No balanced valley: fall back to the median value along dim.
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = points.At(i, dim)
	}
	return matrix.SelectKth(vals, n/2)
}

// Signature hashes one point. Bit i is set when x[dims[i]] > thresholds[i].
func (h *Hasher) Signature(x []float64) uint64 {
	var sig uint64
	for i, dim := range h.dims {
		if x[dim] > h.thresholds[i] {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// SignatureMargins implements MarginFamily: bit i's margin is the
// point's distance to the threshold along the hashing dimension,
// |x[dims[i]] - thresholds[i]|. Margins are only compared against each
// other within one point, so the per-dimension scale difference is
// acceptable: a point sitting on a valley boundary in any dimension is
// the one whose bucket assignment was least certain there.
func (h *Hasher) SignatureMargins(x []float64, margins []float64) uint64 {
	var sig uint64
	for i, dim := range h.dims {
		d := x[dim] - h.thresholds[i]
		if d > 0 {
			sig |= 1 << uint(i)
		}
		if margins != nil {
			margins[i] = math.Abs(d)
		}
	}
	return sig
}

// NearDuplicate reports whether two signatures differ in at most one
// bit, using the paper's O(1) bit manipulation (Eq. 6):
// ANS = (A xor B) & (A xor B - 1) is zero iff A xor B has at most one
// set bit.
func NearDuplicate(a, b uint64) bool {
	x := a ^ b
	return x&(x-1) == 0
}

// HammingDistance returns the number of differing bits.
func HammingDistance(a, b uint64) int { return bits.OnesCount64(a ^ b) }
