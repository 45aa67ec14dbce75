package experiments

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/matrix"
)

// Figure5 regenerates Figure 5: the ratio of the Frobenius norm of the
// approximated (block-diagonal) Gram matrix to that of the full Gram
// matrix, for several dataset sizes and bucket counts. The bucket count
// is swept through the signature width M; the actual (post-merge)
// bucket count is reported alongside.
//
// Both norms are computed by streaming over point pairs, so no N x N
// matrix is ever materialized — this is what lets the experiment reach
// sizes where the paper needed the full matrix in memory.
func Figure5(scale Scale) (*Table, error) {
	sizes := []int{512, 1024}
	ms := []int{2, 4, 6}
	if scale == Full {
		sizes = []int{1024, 4096, 8192}
		ms = []int{2, 4, 6, 8, 10}
	}
	t := &Table{
		ID:      "Figure 5",
		Caption: "Frobenius-norm ratio of approximated vs full Gram matrix",
		Headers: []string{"N", "M", "buckets", "Fnorm ratio"},
	}
	for _, n := range sizes {
		l, err := dataset.Mixture(dataset.MixtureConfig{N: n, K: 16, Noise: 0.05, Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		sigma := kernel.MedianSigma(l.Points, 512, 1)
		kf := kernel.NewGaussian(sigma)
		fullSq := fullGramNormSq(l.Points, kf)
		for _, m := range ms {
			h, err := lsh.Fit(l.Points, lsh.Config{M: m, Seed: 1})
			if err != nil {
				return nil, err
			}
			part := lsh.PartitionWith(h, l.Points, 1)
			approxSq := approxGramNormSq(l.Points, part, kf)
			ratio := 0.0
			if fullSq > 0 {
				ratio = math.Sqrt(approxSq / fullSq)
			}
			t.Rows = append(t.Rows, []string{
				f("%d", n), f("%d", m), f("%d", part.NumBuckets()), f("%.4f", ratio),
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: high ratios that fall as buckets increase; larger N tolerates more buckets (paper Fig 5)")
	return t, nil
}

// fullGramNormSq streams the squared Frobenius norm of the full Gram
// matrix (zero diagonal, as everywhere else in the pipeline).
func fullGramNormSq(points *matrix.Dense, kf kernel.Kernel) float64 {
	n := points.Rows()
	var sum float64
	for i := 0; i < n; i++ {
		xi := points.Row(i)
		for j := i + 1; j < n; j++ {
			v := kf.Eval(xi, points.Row(j))
			sum += 2 * v * v
		}
	}
	return sum
}

// approxGramNormSq streams the squared norm of the block-diagonal
// approximation: only intra-bucket pairs contribute.
func approxGramNormSq(points *matrix.Dense, part *lsh.Partition, kf kernel.Kernel) float64 {
	var sum float64
	for _, b := range part.Buckets {
		for a := 0; a < len(b.Indices); a++ {
			xa := points.Row(b.Indices[a])
			for c := a + 1; c < len(b.Indices); c++ {
				v := kf.Eval(xa, points.Row(b.Indices[c]))
				sum += 2 * v * v
			}
		}
	}
	return sum
}
