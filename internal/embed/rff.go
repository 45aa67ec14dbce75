package embed

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// rffSeedSalt decorrelates the RFF frequency stream from every other
// consumer of Config.Seed (LSH table seeds, k-means seeding) while
// keeping the map a pure function of the seed.
const rffSeedSalt = 0x52464653414c54 // "RFFSALT"

// RFF is a random Fourier feature map for the Gaussian kernel
// (Rahimi & Recht): m frequencies w_j ~ N(0, σ⁻²I) give
//
//	φ(x) = sqrt(1/m) · [cos(w_1·x), sin(w_1·x), …, cos(w_m·x), sin(w_m·x)]
//
// so ⟨φ(x), φ(y)⟩ = (1/m) Σ_j cos(w_j·(x−y)), an unbiased estimate of
// exp(-‖x−y‖²/(2σ²)). The cos/sin pairing evaluates both phases of each
// frequency, halving the estimator variance of the single-phase
// cos(w·x+b) form at the same output dimension. Dim() = 2m.
//
// Determinism contract. The map is a pure per-row function of (row,
// fitted frequencies): the blocked transform computes each output with
// a fixed accumulation order that depends only on the frequency layout —
// never on which rows are co-resident in a block, the subset being
// transformed, or the worker count. Embedding a bucket's rows therefore
// produces bitwise the same floats as slicing those rows out of a
// whole-dataset embedding, which is what lets every driver — whether a
// bucket is solved in the driver's process or a worker's, on rows held
// in memory, shipped or read from shards — agree bit for bit.
type RFF struct {
	freqs    *matrix.Dense // m × d frequency rows, contiguous for DotBlock
	inputDim int
	dim      int     // 2m
	scale    float64 // sqrt(1/m)
}

// NewRFF fits a random Fourier feature map: dim must be positive and
// even (cos/sin pairs), sigma is the Gaussian bandwidth, and the
// frequency matrix is drawn from a seed-derived stream in fixed
// row-major order — the same (inputDim, dim, sigma, seed) always yields
// bitwise the same map.
func NewRFF(inputDim, dim int, sigma float64, seed int64) (*RFF, error) {
	if inputDim <= 0 {
		return nil, fmt.Errorf("embed: RFF input dim %d must be positive", inputDim)
	}
	if dim <= 0 || dim%2 != 0 {
		return nil, fmt.Errorf("embed: RFF dim %d must be positive and even", dim)
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("embed: RFF sigma %v must be positive", sigma)
	}
	m := dim / 2
	freqs := matrix.NewDense(m, inputDim)
	rng := rand.New(rand.NewSource(seed ^ rffSeedSalt))
	data := freqs.Data()
	invSigma := 1 / sigma
	for i := range data {
		data[i] = rng.NormFloat64() * invSigma
	}
	return &RFF{freqs: freqs, inputDim: inputDim, dim: dim, scale: math.Sqrt(1 / float64(m))}, nil
}

// Dim returns the embedded dimension d′ = 2m.
func (r *RFF) Dim() int { return r.dim }

// TransformInto fills dst (len(indices) × Dim() row-major; indices nil
// means all rows) with the embeddings of the listed rows of points, by
// the blocked DotBlock idiom: point-row blocks × frequency-row blocks of
// pairwise dots, each dot turned into one cos/sin pair. The frequency
// matrix is always decomposed into the same fixed blocks, so every
// projection w_j·x is accumulated in the same order no matter which rows
// ride along — the determinism contract above.
func (r *RFF) TransformInto(dst []float64, points *matrix.Dense, indices []int) error {
	n, err := checkTransform(dst, points, indices, r.inputDim, r.dim)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	gatherTok, rows := gatherRows(points, indices)
	if gatherTok != nil {
		defer putScratch(gatherTok)
	}
	d := r.inputDim
	m := r.freqs.Rows()
	fd := r.freqs.Data()
	forEachRowBlock(n, func(i0, i1 int) {
		nr := i1 - i0
		tok, dots := getScratch(blockRows * blockRows)
		defer putScratch(tok)
		for j0 := 0; j0 < m; j0 += blockRows {
			j1 := min(m, j0+blockRows)
			nc := j1 - j0
			block := dots[:nr*nc]
			matrix.DotBlock(rows[i0*d:i1*d], nr, fd[j0*d:j1*d], nc, d, block)
			for i := i0; i < i1; i++ {
				out := dst[i*r.dim : (i+1)*r.dim]
				drow := block[(i-i0)*nc:]
				for j := j0; j < j1; j++ {
					s, c := math.Sincos(drow[j-j0])
					out[2*j] = r.scale * c
					out[2*j+1] = r.scale * s
				}
			}
		}
	})
	return nil
}
