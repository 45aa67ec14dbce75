// Documents: the paper's headline workload — cluster a category-
// structured document corpus. The example walks the entire §5.2
// pipeline: generate raw HTML documents, clean them (strip tags,
// tokenize, stop-words, Porter stemming), rank terms by tf-idf and keep
// each document's top F=11, hash with LSH, cluster each bucket
// spectrally, and score against the ground-truth categories, comparing
// DASC with full spectral clustering.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/text"
)

func main() {
	// A corpus of 1,500 documents. With the paper's category law the
	// generator produces K = 17(log2 N - 9) ~ 26 categories arranged in
	// a topic hierarchy, like Wikipedia's category tree.
	c, err := corpus.Generate(corpus.Config{NumDocs: 1500, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus:   %d documents in %d categories (e.g. %s)\n",
		len(c.Docs), c.Categories, c.CategoryNames[0])

	// Peek at the text pipeline on the first document.
	tokens := text.Clean(c.Docs[0])
	fmt.Printf("doc 0:    %d raw bytes -> %d cleaned+stemmed tokens %v...\n",
		len(c.Docs[0]), len(tokens), tokens[:4])

	// Vectorize: each document keeps its top-11 tf-idf terms.
	data, err := c.Vectorize(11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vectors:  %d x %d (union vocabulary of kept terms)\n",
		data.Points.Rows(), data.Points.Cols())

	dasc, err := core.Run(context.Background(), core.Source{Points: data.Points}, core.Config{K: c.Categories, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	dascAcc, err := metrics.Accuracy(data.Labels, dasc.Labels)
	if err != nil {
		log.Fatal(err)
	}

	sc, err := baseline.SC(data.Points, baseline.Config{K: c.Categories, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	scAcc, err := metrics.Accuracy(data.Labels, sc.Labels)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-6s %-10s %-12s %s\n", "algo", "accuracy", "gram (KB)", "time")
	fmt.Printf("%-6s %-10.3f %-12.1f %s\n", "DASC", dascAcc, float64(dasc.GramBytes)/1024, dasc.Elapsed)
	fmt.Printf("%-6s %-10.3f %-12.1f %s\n", "SC", scAcc, float64(sc.GramBytes)/1024, sc.Elapsed)
	fmt.Printf("\nDASC used %d buckets; accuracy within %.3f of full spectral clustering.\n",
		len(dasc.Buckets), scAcc-dascAcc)
}
