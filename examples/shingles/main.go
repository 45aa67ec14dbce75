// Shingles: near-duplicate-style document clustering with the MinHash
// ensemble. Instead of the tf-idf vector-space route of
// examples/documents, each document becomes the *set* of its k-token
// shingles, hashed into a sparse binary vector; min-wise hashing
// buckets by Jaccard overlap of those sets. A single MinHash table is
// a coarse cut, so the example turns the ensemble dial — several
// independently seeded tables plus Hamming-ball probing — and shows
// the recall climbing while the pipeline stays the stock DASC one.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lsh"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/text"
)

func main() {
	// A small corpus with a handful of well-separated categories.
	c, err := corpus.Generate(corpus.Config{NumDocs: 400, NumCategories: 6, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus:  %d documents in %d categories\n", len(c.Docs), c.Categories)

	// Clean each document and hash its 2-token shingle set into a
	// 512-dimensional binary indicator vector.
	const shingleK, dims = 2, 512
	points := matrix.NewDense(len(c.Docs), dims)
	for i, doc := range c.Docs {
		copy(points.Row(i), text.ShingleVector(text.Clean(doc), shingleK, dims))
	}
	fmt.Printf("vectors: %d x %d binary shingle indicators\n", points.Rows(), points.Cols())

	// MinHash over the shingle support, swept across the ensemble dial.
	// MinHash is seed-refittable, so Tables > 1 derives independent
	// tables from the one family.
	mh, err := lsh.FitMinHash(12, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, dial := range []struct {
		tables, probe int
	}{
		{1, 0}, // single table, probing off: the paper's baseline
		{4, 0}, // four independent tables
		{4, 1}, // ... plus one-bit Hamming probes
	} {
		res, err := core.Run(context.Background(), core.Source{Points: points}, core.Config{
			K: c.Categories, Seed: 1, Family: mh,
			Tables: dial.tables, ProbeRadius: dial.probe,
		})
		if err != nil {
			log.Fatal(err)
		}
		nmi, err := metrics.NMI(c.Labels, res.Labels)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("L=%d R=%d: %3d buckets -> %2d clusters, NMI %.3f\n",
			dial.tables, dial.probe, len(res.Buckets), res.Clusters, nmi)
	}
}
