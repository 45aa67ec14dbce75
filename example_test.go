package dasc_test

import (
	"context"
	"fmt"

	dasc "repro"
)

// Example demonstrates the smallest end-to-end DASC run: generate a
// mixture, cluster it with the paper's defaults, score against ground
// truth.
func Example() {
	data, err := dasc.Mixture(dasc.MixtureConfig{N: 400, D: 8, K: 4, Noise: 0.02, Seed: 42})
	if err != nil {
		panic(err)
	}
	res, err := dasc.Run(context.Background(), dasc.Source{Points: data.Points}, dasc.Config{K: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	acc, err := dasc.Accuracy(data.Labels, res.Labels)
	if err != nil {
		panic(err)
	}
	fmt.Printf("clusters=%d accuracy>=0.95: %v\n", res.Clusters, acc >= 0.95)
	// Output: clusters=4 accuracy>=0.95: true
}

// ExampleRun_memorySavings shows the approximated Gram matrix
// staying below the full N^2 cost — the paper's headline property.
func ExampleRun_memorySavings() {
	data, err := dasc.Mixture(dasc.MixtureConfig{N: 1000, D: 16, K: 8, Noise: 0.03, Seed: 7})
	if err != nil {
		panic(err)
	}
	res, err := dasc.Run(context.Background(), dasc.Source{Points: data.Points}, dasc.Config{K: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	full := int64(4) * 1000 * 1000
	fmt.Printf("approximated gram below full: %v\n", res.GramBytes < full)
	// Output: approximated gram below full: true
}

// ExampleSpectralCluster runs plain spectral clustering on a
// user-provided similarity matrix.
func ExampleSpectralCluster() {
	// Two obvious groups: {0,1} similar, {2,3} similar.
	s, err := dasc.FromRows([][]float64{
		{0, 0.9, 0.1, 0.1},
		{0.9, 0, 0.1, 0.1},
		{0.1, 0.1, 0, 0.9},
		{0.1, 0.1, 0.9, 0},
	})
	if err != nil {
		panic(err)
	}
	labels, err := dasc.SpectralCluster(s, 2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("pairs grouped: %v %v\n", labels[0] == labels[1], labels[2] == labels[3])
	// Output: pairs grouped: true true
}

// ExampleGenerateCorpus walks the document pipeline: synthesize a
// category-structured corpus and vectorize it with the paper's F=11
// top-term representation.
func ExampleGenerateCorpus() {
	c, err := dasc.GenerateCorpus(dasc.CorpusConfig{NumDocs: 100, NumCategories: 4, Seed: 3})
	if err != nil {
		panic(err)
	}
	data, err := c.Vectorize(11)
	if err != nil {
		panic(err)
	}
	fmt.Printf("docs=%d categories=%d labeled=%v\n",
		data.Points.Rows(), c.Categories, len(data.Labels) == 100)
	// Output: docs=100 categories=4 labeled=true
}
