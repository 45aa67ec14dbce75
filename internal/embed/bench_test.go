package embed

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// BenchmarkEmbedTransform measures the blocked RFF transform on a
// large-bucket-sized input — the cost the embedded solve policy pays to
// skip the Gram + eigensolve.
func BenchmarkEmbedTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, d, dim = 2048, 32, 64
	points := matrix.NewDense(n, d)
	data := points.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	rff, err := NewRFF(d, dim, 1.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, n*dim)
	b.Run("rff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rff.TransformInto(dst, points, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
