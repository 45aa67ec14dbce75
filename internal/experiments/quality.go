package experiments

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

// figure3Sizes returns the document counts per scale and the per-
// algorithm size caps. The paper runs 2^10..2^22; the baselines stop
// early there for the same reason they are capped here — the full-Gram
// algorithms do not scale.
func figure3Sizes(s Scale) (sizes []int, scCap, pscCap, nystCap int) {
	if s == Quick {
		return []int{512, 1024}, 1024, 1024, 1024
	}
	return []int{1024, 2048, 4096, 8192}, 2048, 4096, 8192
}

// corpusAt generates and vectorizes the Wikipedia-stand-in corpus at
// the given size, with the vocabulary sized to the Eq. 15 category
// count so that characteristic terms stay disjoint across categories.
func corpusAt(n int, seed int64) (*dataset.Labeled, int, error) {
	k := analytic.CategoryLaw(n)
	c, err := corpus.Generate(corpus.Config{
		NumDocs:   n,
		Seed:      seed,
		CharTerms: 8,
		VocabSize: k*8 + 256,
	})
	if err != nil {
		return nil, 0, err
	}
	l, err := c.Vectorize(11) // the paper's F = 11
	if err != nil {
		return nil, 0, err
	}
	return l, c.Categories, nil
}

// Figure3 regenerates Figure 3: clustering accuracy versus dataset size
// on the (synthetic stand-in) Wikipedia corpus for DASC, SC, PSC and
// NYST. Algorithms that cannot scale stop early, as in the paper.
func Figure3(scale Scale) (*Table, error) {
	sizes, scCap, pscCap, nystCap := figure3Sizes(scale)
	t := &Table{
		ID:      "Figure 3",
		Caption: "accuracy of different algorithms on the Wikipedia-like corpus",
		Headers: []string{"N", "K", "DASC", "SC", "PSC", "NYST"},
	}
	for _, n := range sizes {
		l, k, err := corpusAt(n, int64(n))
		if err != nil {
			return nil, fmt.Errorf("figure3: corpus at %d: %w", n, err)
		}
		row := []string{f("%d", n), f("%d", k)}

		dasc, err := core.Run(context.Background(), core.Source{Points: l.Points}, core.Config{K: k, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("figure3: dasc at %d: %w", n, err)
		}
		row = append(row, accCell(l.Labels, dasc.Labels))

		if n <= scCap {
			sc, err := baseline.SC(l.Points, baseline.Config{K: k, Seed: 1})
			if err != nil {
				return nil, fmt.Errorf("figure3: sc at %d: %w", n, err)
			}
			row = append(row, accCell(l.Labels, sc.Labels))
		} else {
			row = append(row, "-")
		}
		if n <= pscCap {
			psc, err := baseline.PSC(l.Points, baseline.Config{K: k, Seed: 1})
			if err != nil {
				return nil, fmt.Errorf("figure3: psc at %d: %w", n, err)
			}
			row = append(row, accCell(l.Labels, psc.Labels))
		} else {
			row = append(row, "-")
		}
		if n <= nystCap {
			ny, err := baseline.NYST(l.Points, baseline.Config{K: k, Seed: 1})
			if err != nil {
				return nil, fmt.Errorf("figure3: nyst at %d: %w", n, err)
			}
			row = append(row, accCell(l.Labels, ny.Labels))
		} else {
			row = append(row, "-")
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper range is 2^10..2^22 documents on a real cluster; sizes are scaled to one machine",
		"expected shape: DASC close to SC, both above PSC; '-' marks sizes an algorithm cannot reach")
	return t, nil
}

func accCell(truth, pred []int) string {
	acc, err := metrics.Accuracy(truth, pred)
	if err != nil {
		return "err"
	}
	return f("%.3f", acc)
}

// Figure4 regenerates Figure 4: DBI (a) and ASE (b) versus dataset size
// on 64-dimensional synthetic data for the four algorithms.
func Figure4(scale Scale) (*Table, error) {
	sizes := []int{1024, 2048}
	scCap, pscCap := 2048, 2048
	if scale == Full {
		sizes = []int{1024, 2048, 4096, 8192}
		scCap, pscCap = 2048, 4096
	}
	const k = 16
	t := &Table{
		ID:      "Figure 4",
		Caption: "DBI and ASE of different algorithms on synthetic data (64-dim)",
		Headers: []string{"N",
			"DASC DBI", "SC DBI", "PSC DBI", "NYST DBI",
			"DASC ASE", "SC ASE", "PSC ASE", "NYST ASE"},
	}
	for _, n := range sizes {
		l, err := dataset.Mixture(dataset.MixtureConfig{N: n, K: k, Noise: 0.03, Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		type outcome struct{ dbi, ase string }
		eval := func(labels []int) outcome {
			dbi, err1 := metrics.DaviesBouldin(l.Points, labels)
			ase, err2 := metrics.AverageSquaredError(l.Points, labels)
			if err1 != nil || err2 != nil {
				return outcome{"err", "err"}
			}
			return outcome{f("%.3f", dbi), f("%.4f", ase)}
		}
		skip := outcome{"-", "-"}

		dasc, err := core.Run(context.Background(), core.Source{Points: l.Points}, core.Config{K: k, Seed: 1})
		if err != nil {
			return nil, err
		}
		dOut := eval(dasc.Labels)

		sOut, pOut, nOut := skip, skip, skip
		if n <= scCap {
			sc, err := baseline.SC(l.Points, baseline.Config{K: k, Seed: 1})
			if err != nil {
				return nil, err
			}
			sOut = eval(sc.Labels)
		}
		if n <= pscCap {
			psc, err := baseline.PSC(l.Points, baseline.Config{K: k, Seed: 1})
			if err != nil {
				return nil, err
			}
			pOut = eval(psc.Labels)
		}
		ny, err := baseline.NYST(l.Points, baseline.Config{K: k, Seed: 1})
		if err != nil {
			return nil, err
		}
		nOut = eval(ny.Labels)

		t.Rows = append(t.Rows, []string{
			f("%d", n),
			dOut.dbi, sOut.dbi, pOut.dbi, nOut.dbi,
			dOut.ase, sOut.ase, pOut.ase, nOut.ase,
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: DASC DBI/ASE track SC closely; PSC and NYST trail (paper Fig 4)")
	return t, nil
}
