package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/lsh"
	"repro/internal/matrix"
)

// TuneReport records one point of the M sweep performed by TuneM.
type TuneReport struct {
	M          int
	Buckets    int
	FnormRatio float64
	GramFrac   float64
}

// TuneM picks the largest signature width whose approximated Gram
// matrix still retains at least minFnormRatio of the full matrix's
// Frobenius norm — the paper's §5.5 knob ("through the tuning of the
// parameter M, we can control the tradeoff between the accuracy of the
// clustering algorithm and the degree of parallelization"), driven by
// the Figure 5 measurement. The norm ratio is estimated on a sampled
// subset of pairs so tuning stays far below the O(N^2) of the matrices
// it reasons about. Each step partitions exactly as Run would with
// cfg.M set to that width — same tables, probing and merge radius — and
// a P > 0 starts the sweep at M = P. A set Family has a fixed width, so
// there is nothing to sweep. Returns the chosen M and the sweep.
func TuneM(points *matrix.Dense, cfg Config, minFnormRatio float64, samplePairs int) (int, []TuneReport, error) {
	n := points.Rows()
	if n < 2 {
		return 0, nil, fmt.Errorf("core: TuneM needs at least 2 points")
	}
	if cfg.Family != nil {
		return 0, nil, fmt.Errorf("%w: TuneM sweeps the span/threshold hash's width; a Family's is fixed", ErrBadConfig)
	}
	if minFnormRatio <= 0 || minFnormRatio > 1 {
		return 0, nil, fmt.Errorf("core: minFnormRatio %v out of (0,1]", minFnormRatio)
	}
	if samplePairs <= 0 {
		samplePairs = 20000
	}
	sigma := cfg.Sigma
	if sigma <= 0 {
		sigma = kernel.MedianSigma(points, 512, cfg.Seed)
	}
	kf := kernel.NewGaussian(sigma)

	// Sample pairs once; reuse them for every M so the sweep is
	// monotone in the partition, not in sampling noise.
	rng := rand.New(rand.NewSource(cfg.Seed + 0x7A11))
	type pair struct {
		i, j int
		v2   float64 // squared similarity
	}
	pairs := make([]pair, 0, samplePairs)
	var fullSq float64
	for len(pairs) < samplePairs {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := kf.Eval(points.Row(i), points.Row(j))
		p := pair{i, j, v * v}
		pairs = append(pairs, p)
		fullSq += p.v2
	}
	if matrix.IsZero(fullSq) {
		return 0, nil, fmt.Errorf("core: sampled similarities are all zero; bandwidth %v too small", sigma)
	}

	maxM := lsh.DefaultM(n) * 3
	if maxM > 24 {
		maxM = 24
	}
	first := max(1, cfg.P)
	if first > maxM {
		return 0, nil, fmt.Errorf("%w: P=%d exceeds the widest swept M=%d", ErrBadConfig, cfg.P, maxM)
	}
	best := first
	var sweep []TuneReport
	for m := first; m <= maxM; m++ {
		at := cfg
		at.M = m
		at, radius, err := at.resolve(n)
		if err != nil {
			return 0, nil, err
		}
		ens, err := planEnsemble(points, at)
		if err != nil {
			return 0, nil, err
		}
		part := lsh.PartitionWith(ens, points, radius)
		bucketOf := make([]int, n)
		for bi, b := range part.Buckets {
			for _, idx := range b.Indices {
				bucketOf[idx] = bi
			}
		}
		var keptSq float64
		for _, p := range pairs {
			if bucketOf[p.i] == bucketOf[p.j] {
				keptSq += p.v2
			}
		}
		ratio := math.Sqrt(keptSq / fullSq)
		sweep = append(sweep, TuneReport{
			M:          m,
			Buckets:    part.NumBuckets(),
			FnormRatio: ratio,
			GramFrac:   float64(part.ApproxGramEntries()) / (float64(n) * float64(n)),
		})
		if ratio >= minFnormRatio {
			best = m
		}
	}
	return best, sweep, nil
}
