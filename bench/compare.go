package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/matrix"
)

// verdict judges one (workload, end-to-end metric) pair of two runs
// against the metric's bound.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved" // the noise is wider than the bound
)

// judge compares b against a. delta is b's change as a share of a,
// signed so that positive is worse; spread is the noise either run saw
// for the metric, as a share (0 for metrics that are not times).
func judge(a, b, spread, bound float64, better string) (verdict, float64) {
	if matrix.IsZero(a) { // no base to take a share of
		if matrix.IsZero(b) {
			return unchanged, 0
		}
		return unresolved, 0
	}
	delta := (b - a) / a
	if better == "higher" {
		delta = -delta
	}
	switch {
	case spread > bound:
		return unresolved, delta
	case delta > bound:
		return regressed, delta
	case delta < -bound:
		return improved, delta
	}
	return unchanged, delta
}

// compareFiles prints one row per workload: every end-to-end metric of
// B judged against A with the bounds of BENCHMARK.json. It is the tool
// the "two sets of one commit agree" criterion uses, and the one a
// later change uses against its parent.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	regressions := writeComparison(os.Stdout, spec, &a, &b)
	if regressions > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed beyond their bound", regressions)
	}
	return nil
}

func writeComparison(out io.Writer, spec *benchSpec, a, b *resultFile) (regressions int) {
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-16s missing from one file\n", w.Name)
			continue
		}
		cells := make([]string, 0, len(spec.EndToEnd))
		for _, m := range spec.EndToEnd {
			spread := 0.0
			if m.Unit == "s" {
				// A time is only as good as the machine was steady: within
				// each run (op quartiles) and between the two (canaries).
				spread = max(opSpread(ra), opSpread(rb), 2*canaryDrift(ra, rb))
			}
			v, delta := judge(ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value, spread, m.Bound, m.Better)
			if v == regressed {
				regressions++
			}
			cells = append(cells, fmt.Sprintf("%s %s %+.1f%% (bound %.1f%%)", m.Name, v, 100*delta, 100*m.Bound))
		}
		fmt.Fprintf(out, "%-16s %s\n", w.Name, strings.Join(cells, " | "))
	}
	return regressions
}

// canaryDrift is the largest relative difference between the two runs'
// after-run canaries: how much the machine itself changed. A drift of
// half a bound already makes a time comparison unresolved.
func canaryDrift(a, b *runResult) float64 {
	drift := 0.0
	for _, pair := range [][2]float64{
		{a.Canary.After.OneThreadMs, b.Canary.After.OneThreadMs},
		{a.Canary.After.MemoryMs, b.Canary.After.MemoryMs},
	} {
		if pair[0] > 0 {
			drift = max(drift, math.Abs(pair[1]-pair[0])/pair[0])
		}
	}
	return drift
}

// opSpread is the quartile distance of a run's op times over their median.
func opSpread(r *runResult) float64 {
	return (r.Aux["run_s_q3"] - r.Aux["run_s_q1"]) / r.Aux["run_s_median"]
}
