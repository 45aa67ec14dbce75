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
	"repro/internal/offheap"
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
	f, err := newSpanFit(points, cfg)
	if err != nil {
		return nil, err
	}
	defer f.free()
	return f.hasher(cfg.Policy, cfg.Seed)
}

// spanFit is what every hasher fitted on the same rows shares: the rows
// transposed, each dimension's min and span, the signature width and the
// histogram resolution. Hashers fitted from one spanFit differ only in
// the dimensions their policy and seed choose.
type spanFit struct {
	n, m, bins  int
	cols        []float64 // column-major: dimension j is cols[j*n : (j+1)*n]
	mins, spans []float64
}

// newSpanFit validates cfg against the dataset and computes the shared
// part of a fit. Every rule reads the data one dimension at a time, so
// the rows are transposed once and each dimension is a contiguous column
// instead of a strided pass through the rows. The copy is scratch: the
// span selects (and the median fallback of a threshold) reorder columns
// in place, which changes nothing a later hasher computes from them — a
// histogram counts the same in any order, and a selected order
// statistic is the same value. It is as large as the rows and lives
// exactly as long as the fit, so it is mapped outside the Go heap
// (internal/offheap) and the fit's caller frees it once its hashers are
// built.
func newSpanFit(points *matrix.Dense, cfg Config) (*spanFit, error) {
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
	bins := cfg.Bins
	if bins == 0 {
		bins = 20
	}
	if bins < 2 {
		return nil, fmt.Errorf("lsh: Bins=%d must be >= 2", bins)
	}
	cols := offheap.Alloc(n * d)
	for i := 0; i < n; i++ {
		for j, v := range points.Row(i) {
			cols[j*n+i] = v
		}
	}
	mins, spans := dimensionSpans(cols, n)
	return &spanFit{n: n, m: m, bins: bins, cols: cols, mins: mins, spans: spans}, nil
}

// free releases the transposed rows; no hasher keeps them.
func (f *spanFit) free() { offheap.Free(f.cols) }

// hasher chooses the fit's dimensions under policy and seed and sets
// each one's threshold.
func (f *spanFit) hasher(policy DimensionPolicy, seed int64) (*Hasher, error) {
	dims, err := chooseDimensions(f.spans, f.m, policy, seed)
	if err != nil {
		return nil, err
	}
	thresholds := make([]float64, f.m)
	for i, dim := range dims {
		thresholds[i] = valleyThreshold(f.cols[dim*f.n:(dim+1)*f.n], f.mins[dim], f.spans[dim], f.bins)
	}
	return &Hasher{dims: dims, thresholds: thresholds}, nil
}

// dimensionSpans computes per-dimension min and span of the data held
// column-major in cols, n values a column, reordering each column. The
// span used for dimension *ranking* is robust: the 5th-to-95th
// percentile range plus a small full-range tiebreak. On dense data this
// equals max-min (the paper's §3.2 definition); on sparse
// representations like tf-idf it stops a dimension that is nonzero in a
// handful of points from outranking a dimension that actually spreads
// the corpus — the paper's own rationale for the span heuristic
// ("dimensions in which data points are as spread out as possible").
func dimensionSpans(cols []float64, n int) (mins, spans []float64) {
	d := len(cols) / n
	mins = make([]float64, d)
	spans = make([]float64, d)
	for j := range spans {
		c := cols[j*n : (j+1)*n]
		lo, hi := c[0], c[0]
		for _, v := range c[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mins[j] = lo
		full := hi - lo
		if matrix.IsZero(full) {
			continue
		}
		// Two order statistics, not a full per-column sort: SelectKth
		// returns exactly the value sorting would place at that index.
		p05 := matrix.SelectKth(c, int(0.05*float64(n-1)))
		p95 := matrix.SelectKth(c, int(math.Ceil(0.95*float64(n-1))))
		// The explicit conversion rounds the product, which forbids a
		// fused multiply-add: the span is the same on every CPU.
		spans[j] = (p95 - p05) + float64(1e-6*full)
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

// valleyThreshold builds a binCount-bin histogram of one column of the
// data, in any row order, and returns the lower edge of the emptiest bin (Eq. 5): the split
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
func valleyThreshold(col []float64, min, span float64, binCount int) float64 {
	if span <= 0 {
		return min // constant dimension: threshold is degenerate anyway
	}
	const balanceMin = 0.15
	bins := make([]int, binCount)
	n := len(col)
	width := span / float64(binCount)
	for _, v := range col {
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
		// Rounded product, never fused: this threshold decides a bit.
		return min + float64(float64(s)*width)
	}
	// No balanced valley: fall back to the median value along the
	// column.
	return matrix.SelectKth(col, n/2)
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
