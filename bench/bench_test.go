package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the tables in spec.go declare the same metrics
// and workloads, under names the driver accepts.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		check(m.Name)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check(m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.go %+v", i, m, d)
		}
	}
	for _, tiny := range []bool{false, true} {
		ws := workloads(tiny)
		if len(ws) != len(spec.Workloads) {
			t.Fatalf("BENCHMARK.json has %d workloads, workloads(%v) %d", len(spec.Workloads), tiny, len(ws))
		}
		for i, w := range ws {
			if w.name != spec.Workloads[i].Name {
				t.Errorf("workload %d: BENCHMARK.json %q, workloads(%v) %q", i, spec.Workloads[i].Name, tiny, w.name)
			}
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name)
	}
}

// A tiny pass of all four workloads with the traced run: every declared
// metric comes out once, outputs check, the replay reproduces the
// labels, and each workload bypasses the layers it is meant to bypass.
func TestTinyPass(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	for _, w := range workloads(true) {
		r, err := runWorkload(w, options{seed: 1, trace: true, tiny: true, outDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < minOps {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		if !*r.ReplayValid {
			t.Errorf("%s: the stage replay did not reproduce the untraced labels", w.name)
		}
		if len(r.EndToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(r.EndToEnd), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := r.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (emitted %v), want unit %s and a value above 0", w.name, m.Name, got, ok, m.Unit)
			}
		}
		if len(r.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", w.name, len(r.PerLayer), len(spec.PerLayer))
		}
		layer := func(name string) float64 {
			m, ok := r.PerLayer[name]
			if !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, name)
			}
			return m.Value
		}
		for _, m := range spec.PerLayer {
			layer(m.Name)
		}
		// Bypass predictions: the layers a workload does not reach read 0,
		// the ones it is there for do not.
		sharded, corpus := w.driver == driverSharded, w.isCorpus()
		for name, want := range map[string]bool{
			"shard.read_ops":          sharded,
			"shard.stream_s":          sharded,
			"mapreduce.wire_out_mb":   w.tcp,
			"mapreduce.spill_mb":      w.name == "mix-sharded-tcp",
			"mapreduce.map_busy_s":    corpus,
			"corpus.ingest_s":         corpus,
			"text.clean_s":            corpus,
			"core.parallel_run_s":     true,
			"mapreduce.job_cluster_s": w.driver != driverInproc,
			"embed.map_side_s":        w.driver == driverShipped,
		} {
			if got := layer(name) > 0; got != want {
				t.Errorf("%s: %s = %v, want above zero: %v", w.name, name, layer(name), want)
			}
		}
	}
}

func TestCheckLabelsRejectsCorruption(t *testing.T) {
	good := []int{0, 1, 2, 1, 0, 2}
	hash, err := checkLabels(good, 6, 3)
	if err != nil {
		t.Fatalf("valid labels rejected: %v", err)
	}
	for name, c := range map[string]struct {
		labels   []int
		clusters int
	}{
		"short":        {good[:5], 3},
		"out of range": {[]int{0, 1, 3, 1, 0, 2}, 3},
		"negative":     {[]int{0, 1, -1, 1, 0, 2}, 3},
		"gap in ids":   {[]int{0, 1, 3, 1, 0, 3}, 4},
		"no clusters":  {good, 0},
	} {
		if _, err := checkLabels(c.labels, 6, c.clusters); err == nil {
			t.Errorf("%s: corrupted labels accepted", name)
		}
	}
	swapped := []int{0, 1, 2, 1, 2, 0}
	if h, err := checkLabels(swapped, 6, 3); err != nil || h == hash {
		t.Errorf("relabelled vector: hash %x (err %v) must differ from %x", h, err, hash)
	}
}

func TestBucketsFromLabelsRoundTrip(t *testing.T) {
	buckets := [][]int{{0, 3, 4}, {1}, {2, 5, 6, 7}}
	ks := []int{2, 1, 3}
	local := [][]int{{0, 1, 0}, {0}, {2, 0, 1, 2}}
	labels := make([]int, 8)
	offset := 0
	for b, idxs := range buckets {
		for pos, idx := range idxs {
			labels[idx] = offset + local[b][pos]
		}
		offset += ks[b]
	}
	got, err := bucketsFromLabels(labels, ks)
	if err != nil {
		t.Fatal(err)
	}
	for b := range buckets {
		if !slices.Equal(got[b], buckets[b]) {
			t.Errorf("bucket %d: got %v, want %v", b, got[b], buckets[b])
		}
	}
	if _, err := bucketsFromLabels([]int{0, 6}, ks); err == nil {
		t.Error("a label no bucket owns was accepted")
	}
}

func TestPairRecall(t *testing.T) {
	truth := []int{0, 0, 0, 0, 1, 1}
	// Class 0 split 3+1 keeps 3 of its 6 pairs; class 1 keeps its one pair.
	if got, want := pairRecall(truth, []int{0, 0, 0, 1, 2, 2}), 4.0/7.0; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("pairRecall = %v, want %v", got, want)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	spec := loadTestSpec(t)
	for i := range spec.EndToEnd {
		spec.EndToEnd[i].Bound = 0.10 // the judgement under test, not today's calibration
	}
	set := func(runS, q1, q3, accuracy float64) *resultFile {
		f := &resultFile{Workloads: map[string]*runResult{}}
		for _, w := range spec.Workloads {
			r := &runResult{EndToEnd: map[string]metric{}, Aux: map[string]float64{"run_s_q1": q1, "run_s_q3": q3, "run_s_median": runS}}
			for _, m := range spec.EndToEnd {
				r.EndToEnd[m.Name] = metric{Value: 1, Unit: m.Unit}
			}
			r.EndToEnd["run_s"] = metric{Value: runS, Unit: "s"}
			r.EndToEnd["accuracy"] = metric{Value: accuracy, Unit: "ratio"}
			r.Canary.After = canary{OneThreadMs: 80, MemoryMs: 100}
			f.Workloads[w.Name] = r
		}
		return f
	}
	base := set(1, 0.99, 1.01, 0.9)
	slowMachine := set(1.2, 1.19, 1.21, 0.9)
	for _, r := range slowMachine.Workloads {
		r.Canary.After.MemoryMs = 120 // the base ran with 100
	}
	for _, c := range []struct {
		name        string
		b           *resultFile
		want        string
		regressions int
	}{
		{"20% slower", set(1.2, 1.19, 1.21, 0.9), "run_s regressed +20.0%", len(spec.Workloads)},
		{"20% faster", set(0.8, 0.79, 0.81, 0.9), "run_s improved -20.0%", 0},
		{"same", set(1.001, 0.99, 1.01, 0.9), "run_s unchanged +0.1%", 0},
		{"noisy", set(1.2, 0.8, 1.6, 0.9), "run_s unresolved", 0},
		{"slower machine", slowMachine, "run_s unresolved", 0},
		{"less accurate", set(1, 0.99, 1.01, 0.7), "accuracy regressed +22.2%", len(spec.Workloads)},
	} {
		var out bytes.Buffer
		if got := writeComparison(&out, spec, base, c.b); got != c.regressions {
			t.Errorf("%s: %d regressions, want %d\n%s", c.name, got, c.regressions, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != len(spec.Workloads) {
			t.Errorf("%s: %d rows, want one per workload", c.name, rows)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
}
