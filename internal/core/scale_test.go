package core

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// scaleCase is one out-of-core run: an Eq.-15 corpus of n documents is
// streamed through the spooled dense vectorizer (the paper's §5.2: top
// F = 11 terms, d = 11) into shard files, and the shard directory is
// clustered through Run with the embedded solve on its big buckets.
type scaleCase struct {
	name string
	n    int
	// workers is the number of in-process TCP workers; 0 runs the jobs
	// on mapreduce.Local.
	workers int
	// spill is the shuffle budget. It is set at most a quarter of the
	// case's measured shuffle, so the merge always runs file-backed.
	spill    int64
	compress bool
	// minRecall sits just under the exact pair recall the case measured
	// when it was added.
	minRecall float64
}

// run ingests, clusters and checks the case, and logs what it measured.
// The checks are invariants only: every point labelled below Clusters,
// Σ bucket sizes = N, Σ Kᵢ = Clusters, shard reads of at least one full
// pass, a spilled shuffle, and the recall floor. The max RSS is the
// process's, so it belongs to this case only when the case runs alone.
func (c scaleCase) run(t *testing.T) {
	const f, dims = 11, 11
	dir := t.TempDir()
	start := time.Now()
	w, err := shard.NewWriter(dir, dims, shard.DefaultRowsPerShard)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, 0, c.n)
	if _, err := corpus.StreamDense(corpus.Config{NumDocs: c.n, Seed: 1, VocabSize: 8192}, f, dims, 1,
		func(row []float64, label int) error {
			truth = append(truth, label)
			return w.Append(row)
		}); err != nil {
		_ = w.Close()
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ingest := time.Since(start)

	var exec mapreduce.Executor = &mapreduce.Local{}
	if c.workers > 0 {
		exec = loopbackCluster(t, c.workers)
	}
	cfg := Config{Seed: 1, SpillBytes: c.spill, Compression: c.compress, EmbedDim: 64, EmbedCutoff: 2048}
	start = time.Now()
	res, err := Run(bg, Source{Dir: dir}, onExec(exec, cfg))
	if err != nil {
		t.Fatal(err)
	}
	runTime := time.Since(start)

	recall, err := metrics.PairRecall(truth, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	var ru syscall.Rusage // Maxrss is in KiB on Linux
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	ctr := res.MapReduce
	if ctr == nil {
		t.Fatal("Result.MapReduce not populated")
	}
	t.Logf("%s: n=%d ingest=%.1fs run=%.1fs max-rss=%dMB pair-recall=%.4f clusters=%d eq15-K=%d buckets=%d "+
		"shard-read=%dB shard-read-ops=%d shuffle=%dB spill=%dB",
		c.name, c.n, ingest.Seconds(), runTime.Seconds(), ru.Maxrss>>10, recall, res.Clusters, analytic.CategoryLaw(c.n),
		len(res.Buckets), ctr.ShardReadBytes, ctr.ShardReadOps, ctr.ShuffleBytes, ctr.SpillBytes)

	if len(res.Labels) != c.n {
		t.Fatalf("%d labels, want %d", len(res.Labels), c.n)
	}
	for i, lab := range res.Labels {
		if lab < 0 || lab >= res.Clusters {
			t.Fatalf("label[%d] = %d outside [0,%d)", i, lab, res.Clusters)
		}
	}
	size, k := 0, 0
	for _, b := range res.Buckets {
		size += b.Size
		k += b.K
	}
	if size != c.n || k != res.Clusters {
		t.Fatalf("buckets hold %d points and %d clusters, want %d and %d", size, k, c.n, res.Clusters)
	}
	if pass := int64(c.n) * dims * 8; ctr.ShardReadBytes < pass {
		t.Fatalf("shard reads %dB below one full pass %dB", ctr.ShardReadBytes, pass)
	}
	if ctr.SpillBytes == 0 {
		t.Fatalf("the %dB budget did not spill a %dB shuffle", c.spill, ctr.ShuffleBytes)
	}
	if recall < c.minRecall {
		t.Fatalf("pair recall %.4f below the floor %.4f", recall, c.minRecall)
	}
}

// TestOutOfCoreSmall keeps the scale run's body working in the default
// suite: the 1M cases' route, two TCP workers and a spilled shuffle, at
// 4 096 documents.
func TestOutOfCoreSmall(t *testing.T) {
	// The shuffle is 5 024 B and pair recall 0.2003.
	scaleCase{name: "4k-tcp", n: 4096, workers: 2, spill: 1 << 10, minRecall: 0.19}.run(t)
}
