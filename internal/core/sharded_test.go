package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/shard"
)

// writeShardDir splits the test matrix into a shard directory.
func writeShardDir(t *testing.T, pts interface {
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

	batch, err := Cluster(l.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeShardDir(t, l.Points, 64)
	for _, spill := range []int64{0, 512} {
		cfg.SpillBytes = spill
		res, err := ClusterMapReduceSharded(dir, cfg, &mapreduce.Local{})
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
		batch, err := Cluster(l.Points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := writeShardDir(t, l.Points, 50)
		res, err := ClusterMapReduceSharded(dir, cfg, &mapreduce.Local{})
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
	res, err := ClusterMapReduceSharded(dir, Config{K: 4, Seed: 23, FitSample: 64}, &mapreduce.Local{})
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
	if _, err := ClusterMapReduceShardedContext(ctx, dir, Config{K: 3, Seed: 9}, &mapreduce.Local{}); !errors.Is(err, context.Canceled) {
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
	if _, err := ClusterMapReduceSharded(t.TempDir(), Config{}, &mapreduce.Local{}); err == nil {
		t.Error("empty shard dir accepted")
	}
}
