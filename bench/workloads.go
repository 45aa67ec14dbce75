package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
)

// Paper §5.2: keep the top-11 terms per document and represent every
// document in d = 11 dimensions.
const (
	corpusTopTerms = 11
	corpusDims     = 11
)

// tcpWorkers is the size of the loopback cluster of the TCP workloads.
const tcpWorkers = 2

// driver names the program entry point a workload's op calls.
type driver int

const (
	driverInproc  driver = iota // core.Cluster on a resident matrix
	driverShipped               // core.ClusterMapReduceShipped, rows cross the wire
	driverSharded               // core.ClusterMapReduceSharded, rows stay in shard files
)

// workload is one closed-loop benchmark workload: a dataset, a driver
// and a config, all fixed; only the seed varies between runs.
type workload struct {
	name   string
	driver driver
	tcp    bool          // run on the 2-worker loopback cluster (else in-process / Local)
	mix    mixSpec       // mixture workloads
	docs   corpus.Config // corpus-local; its op ingests before it clusters
	cfg    core.Config   // Seed is filled from -seed
	// floors are the quality a correct run cannot fall below on any
	// seed; a run under them counts as failed.
	floors quality
}

func (w workload) isCorpus() bool { return w.docs.NumDocs > 0 }

func (w workload) n() int {
	if w.isCorpus() {
		return w.docs.NumDocs
	}
	return w.mix.N
}

func (w workload) dims() int {
	if w.isCorpus() {
		return corpusDims
	}
	return w.mix.D
}

// workloads returns the four workloads at benchmark size, or at the
// seconds-long size the test suite uses.
func workloads(tiny bool) []workload {
	if tiny {
		return []workload{
			{name: "mix-inproc", driver: driverInproc,
				mix: mixSpec{N: 1024, D: 16, K: 8, Noise: 0.03, DataSeed: 1, Burst: 64},
				cfg: core.Config{K: 8}},
			{name: "mix-shipped-tcp", driver: driverShipped, tcp: true,
				mix: mixSpec{N: 4096, D: 8, K: 8, Noise: 0.03, DataSeed: 1, Burst: 64},
				cfg: core.Config{K: 8, EmbedDim: 16, EmbedCutoff: 256}},
			{name: "mix-sharded-tcp", driver: driverSharded, tcp: true,
				mix: mixSpec{N: 16384, D: 8, K: 8, Noise: 0.03, DataSeed: 1, Burst: 64},
				cfg: core.Config{K: 8, EmbedDim: 16, EmbedCutoff: 256, SpillBytes: 1 << 13, Compression: true}},
			{name: "corpus-local", driver: driverSharded,
				docs: corpus.Config{NumDocs: 1024, VocabSize: 2048, Seed: 1},
				cfg:  core.Config{EmbedDim: 16, EmbedCutoff: 256, Tables: 4, ProbeRadius: 1, MaxMergedBucket: 256}},
		}
	}
	return []workload{
		{name: "mix-inproc", driver: driverInproc,
			mix:    mixSpec{N: 8192, D: 32, K: 32, Noise: 0.03, DataSeed: 1, Burst: 64},
			cfg:    core.Config{K: 32},
			floors: quality{Accuracy: 0.93, NMI: 0.95, PairRecall: 0.90}},
		{name: "mix-shipped-tcp", driver: driverShipped, tcp: true,
			mix:    mixSpec{N: 65536, D: 16, K: 64, Noise: 0.03, DataSeed: 1, Burst: 64},
			cfg:    core.Config{K: 64, EmbedDim: 64, EmbedCutoff: 1024},
			floors: quality{Accuracy: 0.75, NMI: 0.90, PairRecall: 0.80}},
		{name: "mix-sharded-tcp", driver: driverSharded, tcp: true,
			mix:    mixSpec{N: 131072, D: 16, K: 64, Noise: 0.03, DataSeed: 1, Burst: 32},
			cfg:    core.Config{K: 64, EmbedDim: 64, EmbedCutoff: 1024, SpillBytes: 1 << 17, Compression: true},
			floors: quality{Accuracy: 0.75, NMI: 0.90, PairRecall: 0.78}},
		{name: "corpus-local", driver: driverSharded,
			docs:   corpus.Config{NumDocs: 4096, VocabSize: 8192, Seed: 1},
			cfg:    core.Config{EmbedDim: 64, EmbedCutoff: 1024, Tables: 4, ProbeRadius: 1, MaxMergedBucket: 1024},
			floors: quality{Accuracy: 0.25, NMI: 0.36, PairRecall: 0.12}},
	}
}

// instance is one set-up workload, ready to run ops.
type instance struct {
	w      workload
	cfg    core.Config
	truth  []int
	points *matrix.Dense      // resident matrix (inproc, shipped)
	dir    string             // shard directory (sharded); corpus-local rewrites it every op
	exec   mapreduce.Executor // nil for inproc; the traced op wraps it
	stop   func() error       // tears the TCP cluster down

	base    string  // scratch directory of this instance
	opCount int     // corpus-local: names each op's shard directory
	ingestS float64 // corpus-local: ingest half of the last op
}

// setUp builds an instance under dir and runs one warm-up op, so the
// first timed op meets open shard readers, joined workers and a grown
// heap. Everything here is what setup_s times.
func setUp(w workload, seed int64, dir string) (inst *instance, err error) {
	inst = &instance{w: w, cfg: w.cfg, base: dir, stop: func() error { return nil }}
	inst.cfg.Seed = seed * algoSeeds // the first of the run's algorithm seeds
	defer func() {
		if err != nil {
			err = errors.Join(err, inst.close())
		}
	}()
	switch {
	case w.isCorpus():
		// The op itself ingests; nothing to generate ahead of it.
	case w.driver == driverSharded:
		inst.dir = filepath.Join(dir, "shards")
		if inst.truth, err = w.mix.writeShards(seed, inst.dir); err != nil {
			return inst, err
		}
	default:
		if inst.points, inst.truth, err = w.mix.dense(seed); err != nil {
			return inst, err
		}
	}
	switch {
	case w.tcp:
		if inst.exec, inst.stop, err = startCluster(); err != nil {
			return inst, err
		}
	case w.driver != driverInproc:
		inst.exec = &mapreduce.Local{}
	}
	_, err = inst.op()
	return inst, err
}

// op runs the workload's one operation.
func (inst *instance) op() (*core.Result, error) {
	switch inst.w.driver {
	case driverInproc:
		return core.Cluster(inst.points, inst.cfg)
	case driverShipped:
		return core.ClusterMapReduceShipped(inst.points, inst.cfg, inst.exec)
	}
	if inst.w.isCorpus() {
		if err := inst.ingest(); err != nil {
			return nil, err
		}
	}
	return core.ClusterMapReduceSharded(inst.dir, inst.cfg, inst.exec)
}

// ingest is the first half of a corpus-local op: documents → cleaned
// tokens → tf-idf top terms → 11-dim rows → shard files. Every op
// writes a fresh directory, because the program caches shard readers
// by path for the life of the process.
func (inst *instance) ingest() error {
	start := time.Now()
	if inst.dir != "" {
		if err := os.RemoveAll(inst.dir); err != nil {
			return err
		}
	}
	inst.opCount++
	inst.dir = filepath.Join(inst.base, fmt.Sprintf("ingest-%d", inst.opCount))
	w, err := shard.NewWriter(inst.dir, corpusDims, 0)
	if err != nil {
		return err
	}
	truth := make([]int, 0, inst.w.docs.NumDocs)
	_, err = corpus.StreamDense(inst.w.docs, corpusTopTerms, corpusDims, inst.w.docs.Seed,
		func(row []float64, label int) error {
			truth = append(truth, label)
			return w.Append(row)
		})
	if err != nil {
		_ = w.Close() // the stream error is the one to report
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	inst.truth = truth
	inst.ingestS = time.Since(start).Seconds()
	return nil
}

// close stops the cluster and removes the instance's files.
func (inst *instance) close() error {
	return errors.Join(inst.stop(), os.RemoveAll(inst.base))
}

// startCluster starts a TCP master with tcpWorkers in-process workers
// over loopback and returns it with its shutdown function.
func startCluster() (mapreduce.Executor, func() error, error) {
	m, err := mapreduce.NewMaster("127.0.0.1:0", tcpWorkers)
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	werrs := make([]error, tcpWorkers)
	for i := 0; i < tcpWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = mapreduce.RunWorker(m.Addr())
		}(i)
	}
	stop := func() error {
		err := m.Close()
		wg.Wait()
		return errors.Join(err, errors.Join(werrs...))
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < tcpWorkers {
		if time.Now().After(deadline) {
			return nil, nil, errors.Join(errors.New("bench: workers did not join"), stop())
		}
		time.Sleep(time.Millisecond)
	}
	return m, stop, nil
}
