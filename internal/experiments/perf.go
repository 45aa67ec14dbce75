package experiments

import (
	"context"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
)

// Figure6 regenerates Figure 6: measured processing time (a) and Gram
// memory (b) versus dataset size for DASC, SC and PSC on the corpus.
// As in the paper, the full-matrix algorithms stop at the sizes they
// can no longer handle.
func Figure6(scale Scale) (*Table, error) {
	sizes := []int{512, 1024}
	scCap, pscCap := 1024, 1024
	if scale == Full {
		sizes = []int{1024, 2048, 4096, 8192}
		scCap, pscCap = 2048, 4096
	}
	t := &Table{
		ID:      "Figure 6",
		Caption: "measured processing time and Gram memory (Wikipedia-like corpus)",
		Headers: []string{"N",
			"DASC time", "SC time", "PSC time",
			"DASC mem (KB)", "SC mem (KB)", "PSC mem (KB)"},
	}
	for _, n := range sizes {
		l, k, err := corpusAt(n, int64(n))
		if err != nil {
			return nil, err
		}
		row := []string{f("%d", n)}
		var times, mems []string

		dasc, err := core.Run(context.Background(), core.Source{Points: l.Points}, core.Config{K: k, Seed: 1})
		if err != nil {
			return nil, err
		}
		times = append(times, fmtDur(dasc.Elapsed))
		mems = append(mems, f("%.1f", float64(dasc.GramBytes)/1024))

		if n <= scCap {
			sc, err := baseline.SC(l.Points, baseline.Config{K: k, Seed: 1})
			if err != nil {
				return nil, err
			}
			times = append(times, fmtDur(sc.Elapsed))
			mems = append(mems, f("%.1f", float64(sc.GramBytes)/1024))
		} else {
			times, mems = append(times, "-"), append(mems, "-")
		}
		if n <= pscCap {
			psc, err := baseline.PSC(l.Points, baseline.Config{K: k, Seed: 1})
			if err != nil {
				return nil, err
			}
			times = append(times, fmtDur(psc.Elapsed))
			mems = append(mems, f("%.1f", float64(psc.GramBytes)/1024))
		} else {
			times, mems = append(times, "-"), append(mems, "-")
		}
		row = append(row, times...)
		row = append(row, mems...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: DASC time and memory orders of magnitude below SC; PSC between (paper Fig 6)",
		"'-' marks sizes where the baseline is capped, as in the paper")
	return t, nil
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}
