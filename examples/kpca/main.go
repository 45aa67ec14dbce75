// KPCA: kernel principal component analysis on a nonlinear dataset —
// §3.1 lists dimensionality reduction among the kernel methods the
// Gram-matrix approximation serves. Two concentric rings are not
// linearly separable in input space, but the first Gaussian-kernel
// principal component separates them with a threshold; the same
// computation then runs per LSH bucket to show the approximated
// (block-diagonal) Gram matrix preserving that structure.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/kernel"
	"repro/internal/kernelml"
	"repro/internal/lsh"
	"repro/internal/matrix"
)

func main() {
	rng := rand.New(rand.NewSource(4))
	n := 240
	pts := matrix.NewDense(2*n, 2)
	labels := make([]int, 2*n)
	for i := 0; i < n; i++ {
		theta := rng.Float64() * 2 * math.Pi
		r := 1 + rng.NormFloat64()*0.05
		pts.Set(i, 0, r*math.Cos(theta))
		pts.Set(i, 1, r*math.Sin(theta))
		theta = rng.Float64() * 2 * math.Pi
		r = 4 + rng.NormFloat64()*0.05
		pts.Set(n+i, 0, r*math.Cos(theta))
		pts.Set(n+i, 1, r*math.Sin(theta))
		labels[n+i] = 1
	}
	kf := kernel.Gaussian(1.2)

	// Full kernel PCA, on the upper triangle of the whole Gram matrix.
	gram, err := matrix.UpperSym(kernel.GramWithDiagonal(pts, kf))
	if err != nil {
		log.Fatal(err)
	}
	res, err := kernelml.KernelPCA(gram, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full kernel PCA: top eigenvalues %.2f, %.2f\n",
		res.Eigenvalues[0], res.Eigenvalues[1])
	fmt.Printf("ring separation along PC1: %.3f (1.0 = perfect threshold)\n",
		separability(res.Projections.Col(0), labels))

	// Bucketed kernel PCA over the LSH partition: each bucket gets its
	// own principal axes, yet the ring structure survives inside every
	// bucket because LSH keeps neighbours together.
	fam, err := lsh.Fit(pts, lsh.Config{M: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	part := lsh.PartitionWith(fam, pts, 1)
	emb, err := kernelml.BucketedKernelPCA(pts, part, kf, 2)
	if err != nil {
		log.Fatal(err)
	}
	entries := 0
	for _, b := range part.Buckets {
		entries += len(b.Indices) * len(b.Indices)
	}
	fmt.Printf("\nbucketed kernel PCA: %d buckets, %d kernel entries vs %d full\n",
		part.NumBuckets(), entries, 4*n*n)
	// Per-bucket separability of the first local component.
	for bi, b := range part.Buckets {
		vals := make([]float64, len(b.Indices))
		sub := make([]int, len(b.Indices))
		for i, idx := range b.Indices {
			vals[i] = emb.At(idx, 0)
			sub[i] = labels[idx]
		}
		fmt.Printf("bucket %d (%4d points): PC1 ring separation %.3f\n",
			bi, len(b.Indices), separability(vals, sub))
	}
}

// separability returns the best single-threshold accuracy of splitting
// the binary labels by the given scores.
func separability(scores []float64, labels []int) float64 {
	best := 0.0
	for _, thr := range scores {
		correct, flipped := 0, 0
		for i, s := range scores {
			if (s >= thr) == (labels[i] == 1) {
				correct++
			} else {
				flipped++
			}
		}
		if c := math.Max(float64(correct), float64(flipped)) / float64(len(scores)); c > best {
			best = c
		}
	}
	return best
}
