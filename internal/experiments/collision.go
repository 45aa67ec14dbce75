package experiments

import (
	"math/rand"

	"repro/internal/lsh"
)

// Figure2Measured complements the analytic Figure 2 with measurement:
// on the corpus stand-in it hashes the documents at each signature
// width M and reports the empirical probability that two documents of
// the same category land in the same (merged) bucket — the quantity
// Eqs. 13–19 model. The analytic curves say this falls sub-linearly
// with M; the measurement checks the real pipeline does too.
func Figure2Measured(scale Scale) (*Table, error) {
	sizes := []int{1024}
	ms := []int{2, 4, 6, 8}
	if scale == Full {
		sizes = []int{1024, 4096}
		ms = []int{2, 4, 6, 8, 10, 12}
	}
	t := &Table{
		ID:      "Figure 2 (measured)",
		Caption: "empirical same-category collision probability vs signature width",
		Headers: []string{"N", "M", "buckets", "P(same bucket | same category)"},
	}
	for _, n := range sizes {
		l, _, err := corpusAt(n, int64(n))
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			h, err := lsh.Fit(l.Points, lsh.Config{M: m, Seed: 1})
			if err != nil {
				return nil, err
			}
			part := lsh.PartitionWith(h, l.Points, 1)
			bucketOf := make([]int, n)
			for bi, b := range part.Buckets {
				for _, idx := range b.Indices {
					bucketOf[idx] = bi
				}
			}
			// Sample same-category pairs.
			rng := rand.New(rand.NewSource(int64(n*100 + m)))
			same, hits := 0, 0
			for trial := 0; trial < 20000 && same < 5000; trial++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j || l.Labels[i] != l.Labels[j] {
					continue
				}
				same++
				if bucketOf[i] == bucketOf[j] {
					hits++
				}
			}
			p := 0.0
			if same > 0 {
				p = float64(hits) / float64(same)
			}
			t.Rows = append(t.Rows, []string{
				f("%d", n), f("%d", m), f("%d", part.NumBuckets()), f("%.4f", p),
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: probability near 1 at small M, decaying sub-linearly as M grows (analytic Fig 2)")
	return t, nil
}
