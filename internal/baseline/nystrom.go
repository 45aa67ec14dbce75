package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/spectral"
)

// NYST runs spectral clustering with the Nyström extension in the
// style of Shi et al. (§5.4's Matlab comparator): sample m landmark
// points uniformly, then run spectral.ClusterLandmarkRows — the
// algebra of DASC's in-bucket landmark solve — on them: kernel blocks W
// (m x m) and C (n x m), W's eigenvectors extended to all points as
// V ~= D^{-1/2} C U Lambda^{-1}, normalized rows, and K-means. Only
// O(n m + m^2) kernel entries are ever computed or stored.
func NYST(points *matrix.Dense, cfg Config) (*Result, error) {
	n := points.Rows()
	if cfg.K <= 0 {
		return nil, errors.New("baseline: NYST needs K > 0")
	}
	if cfg.Samples < 0 {
		return nil, fmt.Errorf("baseline: NYST samples %d", cfg.Samples)
	}
	if n == 0 {
		return &Result{Labels: []int{}}, nil
	}
	k := min(cfg.K, n)
	m := cfg.Samples
	if m == 0 {
		m = max(cfg.K*4, 64)
	}
	m = min(max(m, k), n)
	start := time.Now()
	kf := kernel.NewGaussian(cfg.sigma(points))

	// The landmarks are the first m rows of a uniform permutation: the
	// paper's column sample without replacement.
	rng := rand.New(rand.NewSource(cfg.Seed))
	lm := matrix.NewDense(m, points.Cols())
	matrix.GatherRows(lm.Data(), points, rng.Perm(n)[:m])
	var scratch []float64
	res, err := spectral.ClusterLandmarkRows(points, lm, kf, k, cfg.Seed, &scratch)
	if err != nil {
		return nil, fmt.Errorf("baseline: NYST: %w", err)
	}
	stored := int64(n)*int64(m) + int64(m)*int64(m)
	return &Result{
		Labels:    res.Labels,
		GramBytes: 4 * stored,
		NNZ:       stored,
		Fill:      float64(stored) / (float64(n) * float64(n)),
		Elapsed:   time.Since(start),
	}, nil
}
