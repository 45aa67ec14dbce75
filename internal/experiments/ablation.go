package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/metrics"
)

// Ablations regenerates the design-choice studies DESIGN.md calls out,
// as a single table: dimension-selection policy, signature width M,
// bucket merging, and LSH family, each reporting accuracy, bucket count
// and the Gram-memory fraction on a common synthetic workload.
func Ablations(scale Scale) (*Table, error) {
	n := 1024
	if scale == Full {
		n = 4096
	}
	const k = 16
	l, err := dataset.Mixture(dataset.MixtureConfig{N: n, D: 32, K: k, Noise: 0.04, Seed: 77})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Ablations",
		Caption: f("design-choice studies on a %d-point synthetic mixture (K=%d)", n, k),
		Headers: []string{"study", "variant", "accuracy", "buckets", "gram frac"},
	}
	add := func(study, variant string, cfg core.Config) error {
		res, err := core.Run(context.Background(), core.Source{Points: l.Points}, cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", study, variant, err)
		}
		acc, err := metrics.Accuracy(l.Labels, res.Labels)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			study, variant,
			f("%.3f", acc),
			f("%d", len(res.Buckets)),
			f("%.3f", float64(res.GramBytes)/float64(4*n*n)),
		})
		return nil
	}

	for _, p := range []lsh.DimensionPolicy{lsh.TopSpan, lsh.SpanWeighted, lsh.Uniform} {
		if err := add("dimension-policy", p.String(), core.Config{K: k, Seed: 1, Policy: p}); err != nil {
			return nil, err
		}
	}
	for _, m := range []int{2, 4, 6, 8, 12} {
		if err := add("signature-bits", f("M=%d", m), core.Config{K: k, Seed: 1, M: m}); err != nil {
			return nil, err
		}
	}
	if err := add("merging", "on (P=M-1)", core.Config{K: k, Seed: 1, M: 8}); err != nil {
		return nil, err
	}
	if err := add("merging", "off", core.Config{K: k, Seed: 1, M: 8, P: -1}); err != nil {
		return nil, err
	}

	paper, err := lsh.Fit(l.Points, lsh.Config{M: 6, Seed: 1})
	if err != nil {
		return nil, err
	}
	sim, err := lsh.FitSimHash(l.Points, 6, 1)
	if err != nil {
		return nil, err
	}
	spec, err := lsh.FitSpectral(l.Points, 6, 1)
	if err != nil {
		return nil, err
	}
	for _, fam := range []struct {
		name string
		f    lsh.Family
	}{{"paper (span/valley)", paper}, {"simhash", sim}, {"spectral-hashing", spec}} {
		if err := add("lsh-family", fam.name, core.Config{K: k, Seed: 1, Family: fam.f}); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"larger M: more buckets, less Gram memory, slowly eroding accuracy (the Fig 2 trade-off)",
		"merging repairs split neighbourhoods at the cost of bigger buckets",
		"the paper's valley thresholds beat balanced spectral hashing on clustered data")
	return t, nil
}
