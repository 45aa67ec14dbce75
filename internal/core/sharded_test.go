package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/shard"
)

// writeShardDir splits the test matrix into a shard directory.
func writeShardDir(t testing.TB, pts interface {
	Rows() int
	Cols() int
	Row(int) []float64
}, rowsPerShard int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := shard.NewWriter(dir, pts.Cols(), rowsPerShard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pts.Rows(); i++ {
		if err := w.Append(pts.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestShardedMatchesInMemoryWithFullFitSample is the out-of-core
// identity contract: with FitSample >= N the sharded driver fits the
// same plan as the in-memory drivers and must reproduce their labels
// bit for bit — with and without a spill budget.
func TestShardedMatchesInMemoryWithFullFitSample(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	cfg := Config{K: 4, Seed: 41, FitSample: 240}

	batch, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeShardDir(t, l.Points, 64)
	for _, spill := range []int64{0, 64} {
		cfg.SpillBytes = spill
		res, err := Run(bg, Source{Dir: dir}, onExec(&mapreduce.Local{}, cfg))
		if err != nil {
			t.Fatalf("spill=%d: %v", spill, err)
		}
		for i := range batch.Labels {
			if res.Labels[i] != batch.Labels[i] {
				t.Fatalf("spill=%d: label[%d] = %d, batch %d", spill, i, res.Labels[i], batch.Labels[i])
			}
		}
		if res.Clusters != batch.Clusters || res.GramBytes != batch.GramBytes {
			t.Fatalf("spill=%d: bookkeeping differs: %d clusters / %d bytes vs %d / %d",
				spill, res.Clusters, res.GramBytes, batch.Clusters, batch.GramBytes)
		}
		if res.MapReduce == nil {
			t.Fatalf("spill=%d: no MapReduce counters", spill)
		}
		if res.MapReduce.ShardReadBytes == 0 {
			t.Fatalf("spill=%d: no shard reads recorded", spill)
		}
		if spill > 0 && res.MapReduce.SpillBytes == 0 {
			t.Fatalf("spill=%d: expected spilling in the stage shuffles", spill)
		}
		if spill == 0 && res.MapReduce.SpillBytes != 0 {
			t.Fatalf("in-memory run reported %d spill bytes", res.MapReduce.SpillBytes)
		}
	}
}

// TestShardedEmbedAndProbeMatchInMemory covers the two paths with
// extra worker-side machinery: the refit RFF embedder and
// margin-ordered multi-probe reads through the shard adapter.
func TestShardedEmbedAndProbeMatchInMemory(t *testing.T) {
	l := mixture(t, 300, 10, 3, 0.03, 17)
	for _, cfg := range []Config{
		{K: 3, Seed: 5, FitSample: 300, EmbedDim: 16, EmbedCutoff: 40},
		{K: 3, Seed: 5, FitSample: 300, Tables: 2, ProbeRadius: 1},
	} {
		batch, err := Run(bg, Source{Points: l.Points}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := writeShardDir(t, l.Points, 50)
		res, err := Run(bg, Source{Dir: dir}, onExec(&mapreduce.Local{}, cfg))
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch.Labels {
			if res.Labels[i] != batch.Labels[i] {
				t.Fatalf("cfg %+v: label[%d] = %d, batch %d", cfg, i, res.Labels[i], batch.Labels[i])
			}
		}
	}
}

// TestShardedSampledFitStillClusters exercises the realistic setting —
// FitSample < N — where labels may differ from the in-memory fit but
// the run must still produce a valid labeling over all points.
func TestShardedSampledFitStillClusters(t *testing.T) {
	l := mixture(t, 400, 8, 4, 0.03, 23)
	dir := writeShardDir(t, l.Points, 128)
	res, err := Run(bg, Source{Dir: dir}, onExec(&mapreduce.Local{}, Config{K: 4, Seed: 23, FitSample: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 400 {
		t.Fatalf("%d labels", len(res.Labels))
	}
	seen := map[int]bool{}
	for i, lab := range res.Labels {
		if lab < 0 || lab >= res.Clusters {
			t.Fatalf("label[%d] = %d outside [0,%d)", i, lab, res.Clusters)
		}
		seen[lab] = true
	}
	if len(seen) != res.Clusters {
		t.Fatalf("%d distinct labels for %d clusters", len(seen), res.Clusters)
	}
}

// TestShardedCancellation checks the context aborts the run.
func TestShardedCancellation(t *testing.T) {
	l := mixture(t, 120, 8, 3, 0.03, 7)
	dir := writeShardDir(t, l.Points, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Source{Dir: dir}, onExec(&mapreduce.Local{}, Config{K: 3, Seed: 9})); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestShardedConfValidation pins the factory-side conf checks of a
// shard-backed source: the directory must open, and the conf is held to
// the same checks as any other source's.
func TestShardedConfValidation(t *testing.T) {
	l := mixture(t, 40, 4, 2, 0.03, 3)
	dir := writeShardDir(t, l.Points, 16)
	table := []lshTable{{Dims: []int{0}, Thresholds: []float64{0}}}
	for name, conf := range map[string]lshConf{
		"no such directory": {Dir: filepath.Join(dir, "missing"), Tables: table},
		"no tables":         {Dir: dir},
	} {
		blob, err := gobEncode(conf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lshJobFromConf(blob); err == nil {
			t.Errorf("lsh conf with %s accepted", name)
		}
	}
	for name, conf := range map[string]solveConf{
		"no such directory": {Dir: filepath.Join(dir, "missing"), Policy: solvePolicy{N: 40, Cols: 4, K: 2, Sigma: 1}},
		"N = 0":             {Dir: dir, Policy: solvePolicy{N: 0, Cols: 4, K: 1, Sigma: 1}},
	} {
		blob, err := gobEncode(conf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := clusterJobFromConf(blob); err == nil {
			t.Errorf("cluster conf with %s accepted", name)
		}
	}
	if _, err := Run(bg, Source{Dir: t.TempDir()}, onExec(&mapreduce.Local{}, Config{})); err == nil {
		t.Error("empty shard dir accepted")
	}
}

// TestProbeCursorWindows sweeps a shard directory through the probe
// cursor the way a probing partition does — ascending, once per table —
// over shard sizes smaller than, equal to and not dividing the window,
// with N a multiple of neither: every row must be the matrix's, and a
// sweep must cost one read per shard a window touches, not one per row.
// Out-of-order requests refill and stay correct.
func TestProbeCursorWindows(t *testing.T) {
	const n, d, sweeps = 1300, 16, 3
	l := mixture(t, n, d, 4, 0.03, 29)
	win := probeWindowBytes / (8 * d)
	for _, per := range []int{win / 4, win, 300} {
		src, err := openShardRows(writeShardDir(t, l.Points, per))
		if err != nil {
			t.Fatal(err)
		}
		c := newProbeCursor(src.r)
		if c.Rows() != n || len(c.win) != win*d {
			t.Fatalf("per=%d: cursor over %d rows, window of %d values", per, c.Rows(), len(c.win))
		}
		check := func(i int) {
			t.Helper()
			got, want := c.Row(i), l.Points.Row(i)
			if len(got) != d {
				t.Fatalf("per=%d: row %d has %d values", per, i, len(got))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("per=%d: row %d col %d = %v, want %v", per, i, j, got[j], want[j])
				}
			}
		}
		wantOps := 0 // one read per shard each window [s, s+win) touches
		for s := 0; s < n; s += win {
			wantOps += (min(s+win, n)-1)/per - s/per + 1
		}
		before := src.r.ReadOps()
		for s := 0; s < sweeps; s++ {
			for i := 0; i < n; i++ {
				check(i)
			}
		}
		if ops := src.r.ReadOps() - before; ops != int64(sweeps*wantOps) {
			t.Fatalf("per=%d: %d sweeps took %d reads, want %d", per, sweeps, ops, sweeps*wantOps)
		}
		for _, i := range []int{n - 1, 0, win, win - 1, n / 2, n/2 + 1, 3} {
			check(i)
		}
		if c.err != nil {
			t.Fatalf("per=%d: %v", per, c.err)
		}
		// A row outside the matrix is a recorded error and a zero row, and
		// the cursor still serves the rows it can.
		if row := c.Row(n); len(row) != d || c.err == nil {
			t.Fatalf("per=%d: Row(%d) = %v, err %v", per, n, row, c.err)
		}
		check(5)
	}
}

// TestShardedProbeReadsAreWindowed is the end-to-end pin that keeps the
// per-row probe read from coming back: a probing run over shards of
// every alignment labels the points exactly as a Points run does, and its
// whole read-op count stays under what the windowed sweeps, the fit
// sample, the stage-1 streams and the stage-2 gathers can need — far
// under the Tables·N a read per probed row would add.
func TestShardedProbeReadsAreWindowed(t *testing.T) {
	const n, d = 1300, 16
	l := mixture(t, n, d, 4, 0.03, 29)
	cfg := Config{K: 4, Seed: 7, FitSample: n, Tables: 3, ProbeRadius: 1}
	batch, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	win := probeWindowBytes / (8 * d)
	for _, per := range []int{win / 4, win, 300} {
		res, err := Run(bg, Source{Dir: writeShardDir(t, l.Points, per)}, onExec(&mapreduce.Local{}, cfg))
		if err != nil {
			t.Fatalf("per=%d: %v", per, err)
		}
		for i := range batch.Labels {
			if res.Labels[i] != batch.Labels[i] {
				t.Fatalf("per=%d: label[%d] = %d, Cluster %d", per, i, res.Labels[i], batch.Labels[i])
			}
		}
		shards := (n + per - 1) / per
		sweep := (n+win-1)/win + shards // a window read splits at most once per shard boundary
		// Fit sample and stage-1 streams read whole shards in a few blocks
		// each; a gather cannot need more reads than there are rows.
		bound := int64(cfg.Tables*sweep + 2*shards + 2*shards + n)
		if ops := res.MapReduce.ShardReadOps; ops > bound {
			t.Fatalf("per=%d: %d shard reads, want ≤ %d", per, ops, bound)
		}
	}
}

// truncateAfterLSH runs jobs on Local and cuts every shard file down to
// its header once stage 1 has finished, so the next rows anyone asks the
// open reader for — the probe's — are not there.
type truncateAfterLSH struct {
	local mapreduce.Local // a field, not embedded: the driver must come through Run
	dir   string
}

func (e *truncateAfterLSH) Run(job *mapreduce.Job, input []mapreduce.Pair) ([]mapreduce.Pair, *mapreduce.Counters, error) {
	out, ctr, err := e.local.Run(job, input)
	if err != nil || job.Name != "dasc-lsh" {
		return out, ctr, err
	}
	files, err := filepath.Glob(filepath.Join(e.dir, "*.dshd"))
	for _, f := range files {
		err = errors.Join(err, os.Truncate(f, 32))
	}
	return out, ctr, err
}

// TestShardedProbeReadFailureSurfaces checks a read failure in the
// middle of probing is the run's error, under the probe's name.
func TestShardedProbeReadFailureSurfaces(t *testing.T) {
	l := mixture(t, 300, 10, 3, 0.03, 17)
	dir := writeShardDir(t, l.Points, 50)
	cfg := Config{K: 3, Seed: 5, FitSample: 300, Tables: 2, ProbeRadius: 1}
	_, err := Run(bg, Source{Dir: dir}, onExec(&truncateAfterLSH{dir: dir}, cfg))
	if err == nil || !strings.Contains(err.Error(), "core: sharded probe rows") {
		t.Fatalf("err = %v, want the probe's read failure", err)
	}
}

// BenchmarkProbeCursor sweeps corpus-local's 4 096 × 11 rows four times
// — one probing partition's row traffic — and reports the ReadAt calls
// it took.
func BenchmarkProbeCursor(b *testing.B) {
	const n, d, sweeps = 4096, 11, 4
	l, err := dataset.Mixture(dataset.MixtureConfig{N: n, D: d, K: 4, Noise: 0.03, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	w, err := shard.NewWriter(dir, d, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(l.Points.Row(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	src, err := openShardRows(dir)
	if err != nil {
		b.Fatal(err)
	}
	before := src.r.ReadOps()
	var sum float64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		c := newProbeCursor(src.r)
		for s := 0; s < sweeps; s++ {
			for i := 0; i < n; i++ {
				sum += c.Row(i)[0]
			}
		}
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	b.ReportMetric(float64(src.r.ReadOps()-before)/float64(b.N), "ReadOps/op")
	probeSink = sum
}

var probeSink float64
