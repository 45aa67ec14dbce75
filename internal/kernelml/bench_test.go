package kernelml

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/lsh"
)

// BenchmarkBucketedKernelPCA runs 8 kernel principal components in each
// bucket of an unmerged M = 2 partition (four buckets of about 1 500
// rows) of a 6 000 x 16 mixture: the packed sub-Gram, its in-place
// centring and a Lanczos top-K solve per bucket. B/op shows what the
// buckets' Grams cost.
func BenchmarkBucketedKernelPCA(b *testing.B) {
	l, err := dataset.Mixture(dataset.MixtureConfig{N: 6000, D: 16, K: 4, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	h, err := lsh.Fit(l.Points, lsh.Config{M: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	part := lsh.PartitionWith(h, l.Points, -1)
	kf := kernel.NewGaussian(0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BucketedKernelPCA(l.Points, part, kf, 8); err != nil {
			b.Fatal(err)
		}
	}
}
