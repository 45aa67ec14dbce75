package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
	"repro/internal/shard"
)

// mixSpec fixes one Gaussian-mixture dataset. Its content — component
// centres and every point's noise — is a function of DataSeed, a
// workload constant, and not of the run's -seed: DASC's cost is Σnᵢ²
// over LSH buckets, and the histogram-valley thresholds that cut the
// buckets flip with any resampling of the points (measured on
// N=8192,D=32,K=32: 0.12–0.87 s per op across five noise seeds, same
// centres), which no regression bound could absorb. The run's seed
// instead draws the arrival order of the rows (a permutation of
// Burst-row blocks, so classes arrive in bursts the way a crawl
// delivers them) and seeds the algorithm itself.
type mixSpec struct {
	N, D, K  int
	Noise    float64
	DataSeed int64
	// Burst is the run length of same-class rows in arrival order. For
	// the sharded workload it must equal the stride of the driver's fit
	// sample (N / core.DefaultFitSample), so that the sample is the first
	// row of every burst — the same rows under every arrival order — and
	// the plan, hence the buckets, do not move with the seed.
	Burst int
}

// rows streams the dataset in the arrival order drawn by seed, calling
// fn with each row and its true class. The row slice is reused.
func (m mixSpec) rows(seed int64, fn func(i int, row []float64, label int) error) error {
	if m.Burst < 1 || m.N%m.Burst != 0 || m.K < 1 || m.D < 1 {
		return fmt.Errorf("bench: mixture %+v needs N divisible by its burst length", m)
	}
	crng := rand.New(rand.NewSource(m.DataSeed))
	centers := make([]float64, m.K*m.D)
	for i := range centers {
		centers[i] = 0.1 + 0.8*crng.Float64()
	}
	order := rand.New(rand.NewSource(seed)).Perm(m.N / m.Burst)
	row := make([]float64, m.D)
	for i := 0; i < m.N; i++ {
		src := order[i/m.Burst]*m.Burst + i%m.Burst
		c := src * m.K / m.N // balanced components, contiguous in source order
		// Counter-based noise: row src always gets the same values, so
		// every arrival order carries exactly the same point set.
		state := uint64(m.DataSeed)*0x9E3779B97F4A7C15 + uint64(src)*0xD1342543DE82EF95
		for j := 0; j < m.D; j += 2 {
			z0, z1 := normalPair(&state)
			row[j] = clamp01(centers[c*m.D+j] + z0*m.Noise)
			if j+1 < m.D {
				row[j+1] = clamp01(centers[c*m.D+j+1] + z1*m.Noise)
			}
		}
		if err := fn(i, row, c); err != nil {
			return err
		}
	}
	return nil
}

// dense materializes the dataset for the in-memory workloads.
func (m mixSpec) dense(seed int64) (*matrix.Dense, []int, error) {
	pts := matrix.NewDense(m.N, m.D)
	truth := make([]int, m.N)
	err := m.rows(seed, func(i int, row []float64, label int) error {
		copy(pts.Row(i), row)
		truth[i] = label
		return nil
	})
	return pts, truth, err
}

// writeShards streams the dataset into DSHD shard files under dir
// without ever holding the matrix, and returns the true classes.
func (m mixSpec) writeShards(seed int64, dir string) ([]int, error) {
	w, err := shard.NewWriter(dir, m.D, 0)
	if err != nil {
		return nil, err
	}
	truth := make([]int, m.N)
	err = m.rows(seed, func(i int, row []float64, label int) error {
		truth[i] = label
		return w.Append(row)
	})
	if err != nil {
		_ = w.Close() // the append error is the one to report
		return nil, err
	}
	return truth, w.Close()
}

// splitmix64 advances the counter-based generator.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// normalPair draws two independent standard normals (Box–Muller).
func normalPair(state *uint64) (float64, float64) {
	u1 := (float64(splitmix64(state)>>11) + 1) / (1 << 53) // (0,1]
	u2 := float64(splitmix64(state)>>11) / (1 << 53)
	r := math.Sqrt(-2 * math.Log(u1))
	s, c := math.Sincos(2 * math.Pi * u2)
	return r * c, r * s
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
