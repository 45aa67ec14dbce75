package kmeans

import "testing"

// BenchmarkRunEmbedded times Run on the two shapes of embedded solve the
// repository benchmark runs: corpus-local's bucket (3 298 overlapping
// unit-norm 64-dimensional rows, k = 41, tens of iterations) and
// mix-sharded-tcp's largest (20 471 separated rows, k = 10, a handful of
// iterations, seeding-dominated).
func BenchmarkRunEmbedded(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n, k   int
		spread float64
	}{
		{"overlapping-3298x64-k41", 3298, 41, 4},
		{"separated-20471x64-k10", 20471, 10, 0.5},
	} {
		pts := unitRows(1, bc.n, 64, bc.k, bc.spread)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var evals, iters int64
			for i := 0; i < b.N; i++ {
				res, err := Run(pts, Config{K: bc.k, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				evals += res.DistanceEvals
				iters += int64(res.Iterations)
			}
			b.ReportMetric(float64(evals)/float64(b.N), "dist-evals/op")
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
		})
	}
}
