package main

// The out-of-core million-point run (the paper's §5.2 at full width).
// It streams the Eq.-15 corpus through the one-pass, spooled dense
// vectorizer straight into shard files, clusters the shards with the
// sharded MapReduce driver over a spill-enabled TCP cluster, and
// replays the measured bucket structure through the EMR simulator with
// the disk-cost model on. Nothing in the process ever holds the corpus,
// the sparse tf-idf matrix, or the dense dataset in memory at once, so
// the recorded peak RSS is the out-of-core working set.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/emr"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/shard"
)

// benchScale appends the out-of-core entries to rep. n is the corpus
// size, dir the shard directory ("" = temp), spill the shuffle budget.
func benchScale(rep *Report, n int, dir string, spill int64) error {
	const f = 11    // paper §5.2: keep the top-11 terms per document
	const dims = 11 // and represent every document in d = 11 dimensions

	if dir == "" {
		tmp, err := os.MkdirTemp("", "dasc-scale-")
		if err != nil {
			return err
		}
		defer func() { _ = os.RemoveAll(tmp) }()
		dir = tmp
	}

	// Phase 1: corpus -> dense rows -> shard files, all streaming.
	ccfg := corpus.Config{NumDocs: n, Seed: 1, VocabSize: 8192}
	labels := make([]int, 0, n)
	w, err := shard.NewWriter(dir, dims, shard.DefaultRowsPerShard)
	if err != nil {
		return err
	}
	start := time.Now()
	meta, err := corpus.StreamDense(ccfg, f, dims, 1, func(row []float64, label int) error {
		labels = append(labels, label)
		return w.Append(row)
	})
	if err != nil {
		_ = w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	shardNs := time.Since(start).Nanoseconds()
	var shardBytes int64
	if err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			shardBytes += info.Size()
		}
		return err
	}); err != nil {
		return err
	}
	// The batch pipeline would hold the N x |vocab| dense tf-idf
	// matrix (plus the HTML corpus itself); that matrix alone is the
	// avoided footprint.
	inmem := int64(n) * int64(meta.Terms) * 8
	rep.Results = append(rep.Results, Result{
		Name: "scale/shard-write", NsPerOp: shardNs, N: int64(n),
		ShardReadBytes: 0, InMemoryBytes: inmem, PeakRSSBytes: peakRSS(),
	})
	fmt.Printf("%-24s %12d ns  N=%d  terms=%d  shards=%dB  batch-would-need=%dB\n",
		"scale/shard-write", shardNs, n, meta.Terms, shardBytes, inmem)

	// Phase 2: sharded DASC over a spill-enabled 2-worker TCP cluster,
	// once on each data plane — plain and compressed — so every report
	// carries the A/B. Embed mode keeps the largest merged buckets
	// dot-product-bound so the solve stage's memory stays flat as N
	// grows.
	var res *core.Result
	for _, plane := range []struct {
		name     string
		compress bool
	}{{"scale/sharded-tcp", false}, {"scale/sharded-tcp-comp", true}} {
		cfg := core.Config{Seed: 1, SpillBytes: spill, EmbedDim: 64, EmbedCutoff: 2048,
			Compression: plane.compress}
		wall, r, err := runShardedTCP(dir, cfg)
		if err != nil {
			return err
		}
		res = r
		recall := sampledPairRecall(labels, res.Labels, 500_000)
		ctr := res.MapReduce
		entry := Result{
			Name: plane.name, NsPerOp: wall, N: int64(n), Acc: recall,
			ShuffleBytes:    ctr.ShuffleBytes,
			SpillBytes:      ctr.SpillBytes,
			ShardReadBytes:  ctr.ShardReadBytes,
			ShardReadOps:    ctr.ShardReadOps,
			CoalescedReads:  ctr.ShardCoalescedReads,
			CompressedBytes: ctr.CompressedBytes,
			CompressNanos:   ctr.CompressNanos,
			PeakRSSBytes:    peakRSS(),
		}
		if raw := ctr.SpillBytes + ctr.CompressedBytes; plane.compress && raw > 0 {
			entry.CompressRatio = float64(ctr.SpillBytes) / float64(raw)
		}
		rep.Results = append(rep.Results, entry)
		fmt.Printf("%-24s %12d ns  clusters=%d buckets=%d spill=%dB saved=%dB shard-read=%dB ops=%d coalesced=%d recall=%.3f rss=%dB\n",
			plane.name, wall, res.Clusters, len(res.Buckets),
			ctr.SpillBytes, ctr.CompressedBytes, ctr.ShardReadBytes,
			ctr.ShardReadOps, ctr.ShardCoalescedReads, recall, peakRSS())
	}

	// Phase 3: replay the measured bucket structure on the EMR
	// simulator with the out-of-core disk model (paper Table 3 shape,
	// 64 nodes). Only the bucket sizes matter to the cost model.
	part := &lsh.Partition{}
	for _, b := range res.Buckets {
		part.Buckets = append(part.Buckets, lsh.Bucket{
			Signature: b.Signature, Indices: make([]int, b.Size),
		})
	}
	for _, plane := range []struct {
		name     string
		compress bool
	}{{"scale/emr-sim", false}, {"scale/emr-sim-comp", true}} {
		fcfg := core.Config{Seed: 1, SpillBytes: spill, EmbedDim: 64, EmbedCutoff: 2048,
			Compression: plane.compress}
		flow := core.BuildFlowSharded(part, fcfg, n, dims, 0)
		c, err := emr.NewCluster(64)
		if err != nil {
			return err
		}
		frep, err := c.RunJobFlow(flow)
		if err != nil {
			return err
		}
		simNs := int64(frep.TotalTime * 1e9)
		rep.Results = append(rep.Results, Result{
			Name: plane.name, NsPerOp: simNs, N: int64(n),
			DiskBytes: frep.TotalDiskBytes,
		})
		fmt.Printf("%-24s %12d ns  disk=%dB\n", plane.name, simNs, frep.TotalDiskBytes)
	}
	return nil
}

// runShardedTCP clusters the shard directory over a fresh spill-enabled
// 2-worker TCP cluster and returns the wall time and result.
func runShardedTCP(dir string, cfg core.Config) (int64, *core.Result, error) {
	m, err := mapreduce.NewMaster("127.0.0.1:0", 2)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = m.Close() }()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = mapreduce.RunWorker(m.Addr())
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < 2 {
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("dascbench: scale workers did not join")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cfg.Executor = m
	res, err := core.Run(context.Background(), core.Source{Dir: dir}, cfg)
	if err != nil {
		return 0, nil, err
	}
	wall := time.Since(start).Nanoseconds()
	if err := m.Close(); err != nil {
		return 0, nil, err
	}
	wg.Wait()
	return wall, res, nil
}

// sampledPairRecall samples `pairs` random point pairs and returns the
// fraction of same-category pairs the clustering also puts in one
// cluster — cheap enough for million-point runs.
func sampledPairRecall(truth, pred []int, pairs int) float64 {
	if len(truth) < 2 || len(truth) != len(pred) {
		return 0
	}
	rng := rand.New(rand.NewSource(99))
	same, hit := 0, 0
	for p := 0; p < pairs; p++ {
		i := rng.Intn(len(truth))
		j := rng.Intn(len(truth))
		if i == j || truth[i] != truth[j] {
			continue
		}
		same++
		if pred[i] == pred[j] {
			hit++
		}
	}
	if same == 0 {
		return 0
	}
	return float64(hit) / float64(same)
}
