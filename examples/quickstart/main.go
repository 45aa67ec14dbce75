// Quickstart: cluster a synthetic Gaussian mixture with DASC and check
// the result against ground truth — the smallest end-to-end use of the
// library's public pipeline (dataset -> core.Run -> metrics).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

func main() {
	// 2,000 points in 16 dimensions from 5 well-separated blobs.
	data, err := dataset.Mixture(dataset.MixtureConfig{
		N: 2000, D: 16, K: 5, Noise: 0.03, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// DASC with paper defaults: M = ceil(log2 N / 2) - 1 signature
	// bits, bucket merging at Hamming distance 1, Gaussian kernel with
	// the median-distance bandwidth. core.Run is the one entry point: a
	// resident matrix and no Executor solve the buckets on the
	// in-process pool. The deadline bounds the run, cancelling between
	// stages and before each bucket solve.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := core.Run(ctx, core.Source{Points: data.Points}, core.Config{K: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	acc, err := metrics.Accuracy(data.Labels, res.Labels)
	if err != nil {
		log.Fatal(err)
	}
	full := int64(4) * int64(data.Points.Rows()) * int64(data.Points.Rows())
	fmt.Printf("points:    %d\n", data.Points.Rows())
	fmt.Printf("signature: %d bits -> %d buckets\n", res.SignatureBits, len(res.Buckets))
	fmt.Printf("clusters:  %d\n", res.Clusters)
	fmt.Printf("accuracy:  %.3f\n", acc)
	fmt.Printf("gram:      %.0f KB approximated vs %.0f KB full (%.1fx saving)\n",
		float64(res.GramBytes)/1024, float64(full)/1024,
		float64(full)/float64(res.GramBytes))
	fmt.Printf("time:      %s\n", res.Elapsed)
}
