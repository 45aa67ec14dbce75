//go:build largescale

package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/shard"
)

// TestLargeScaleOutOfCore is the non-blocking CI smoke for the
// out-of-core data plane: a ~100k-document Eq.-15 corpus is streamed
// through the spooled dense vectorizer into shard files and clustered
// by the sharded driver with a deliberately small spill budget, so
// shard streaming, demand hydration, and the file-backed merge all run
// at a scale no in-memory test reaches. Build tag `largescale` keeps it
// out of the tier-1 suite; run with:
//
//	go test -tags largescale -run LargeScale -timeout 30m ./internal/core/
func TestLargeScaleOutOfCore(t *testing.T) {
	if testing.Short() {
		t.Skip("largescale smoke skipped in -short mode")
	}
	const n = 100_000
	const dims = 11
	dir := t.TempDir()
	w, err := shard.NewWriter(dir, dims, shard.DefaultRowsPerShard)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, 0, n)
	if _, err := corpus.StreamDense(corpus.Config{NumDocs: n, Seed: 1, VocabSize: 8192}, 11, dims, 1,
		func(row []float64, label int) error {
			truth = append(truth, label)
			return w.Append(row)
		}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// With stage 1 grouped in the mapper the 100k-document shuffle is
	// ≈ 0.26 MB (ShuffleBytes 261 918; it was 2 409 859 with one record
	// per row and table, which a 512 KiB budget spilled and no longer
	// does); 64 KiB is below a quarter of it, so the merge runs
	// file-backed.
	cfg := Config{Seed: 1, SpillBytes: 64 << 10, EmbedDim: 64, EmbedCutoff: 2048}
	res, err := Run(bg, Source{Dir: dir}, onExec(&mapreduce.Local{}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != n {
		t.Fatalf("%d labels, want %d", len(res.Labels), n)
	}
	for i, lab := range res.Labels {
		if lab < 0 || lab >= res.Clusters {
			t.Fatalf("label[%d] = %d outside [0,%d)", i, lab, res.Clusters)
		}
	}
	ctr := res.MapReduce
	if ctr == nil || ctr.SpillBytes == 0 {
		t.Fatalf("expected the 64KiB budget to spill, counters %+v", ctr)
	}
	if ctr.ShardReadBytes < int64(n)*dims*8 {
		t.Fatalf("shard reads %dB below one full pass %dB", ctr.ShardReadBytes, int64(n)*dims*8)
	}
	t.Logf("n=%d clusters=%d buckets=%d shuffle=%dB spill=%dB shard-read=%dB elapsed=%v",
		n, res.Clusters, len(res.Buckets), ctr.ShuffleBytes, ctr.SpillBytes, ctr.ShardReadBytes, res.Elapsed)
}
