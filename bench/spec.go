package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// lists the same names, units and directions (the test holds the two
// together); what it has no key for lives here.
type metricDef struct {
	Name, Unit, Better string
	// Exact marks a count that repeated bit for bit across runs of one
	// seed when this benchmark was defined; only those may carry a
	// claim on their own (see README, "Counter determinism").
	Exact bool
	// Moves names the end-to-end metric and workloads the layer metric
	// is expected to move.
	Moves string
}

// endToEnd is what a user of the system feels, reported for every workload.
var endToEnd = []metricDef{
	{Name: "run_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "accuracy", Unit: "ratio", Better: "higher"},
	{Name: "nmi", Unit: "ratio", Better: "higher"},
	{Name: "pair_recall", Unit: "ratio", Better: "higher"},
	{Name: "gram_mb", Unit: "MB", Better: "lower"},
}

// Shorthands for the Moves column.
const (
	mvAll      = "run_s everywhere"
	mvInproc   = "run_s on mix-inproc"
	mvQuality  = "pair_recall, nmi, gram_mb everywhere; run_s via Σnᵢ²"
	mvShipped  = "run_s on mix-shipped-tcp"
	mvSharded  = "run_s on mix-sharded-tcp"
	mvTCP      = "run_s on mix-shipped-tcp, mix-sharded-tcp"
	mvShards   = "run_s, peak_rss_mb on mix-sharded-tcp; run_s on corpus-local"
	mvCorpus   = "run_s on corpus-local"
	mvTracking = "none (tracking number)"
)

// perLayer is measured from outside the program by the traced run.
var perLayer = []metricDef{
	{Name: "core.plan_s", Unit: "s", Better: "lower", Moves: mvAll},
	{Name: "core.driver_self_s", Unit: "s", Better: "lower", Moves: mvAll},
	{Name: "core.cpu_s", Unit: "s", Better: "lower", Moves: mvAll},
	{Name: "core.alloc_mb", Unit: "MB", Better: "lower", Moves: "run_s, peak_rss_mb on mix-shipped-tcp"},
	{Name: "core.mallocs", Unit: "count", Better: "lower", Moves: "run_s, peak_rss_mb on mix-shipped-tcp"},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower", Moves: mvAll},
	{Name: "core.parallel_run_s", Unit: "s", Better: "lower", Moves: mvTracking},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher", Moves: mvTracking},

	{Name: "lsh.fit_s", Unit: "s", Better: "lower", Moves: mvAll},
	{Name: "lsh.hash_s", Unit: "s", Better: "lower", Moves: mvAll},
	{Name: "lsh.partition_s", Unit: "s", Better: "lower", Moves: mvCorpus},
	{Name: "lsh.buckets", Unit: "count", Better: "higher", Exact: true, Moves: mvQuality},
	{Name: "lsh.largest_bucket", Unit: "count", Better: "lower", Exact: true, Moves: mvQuality},
	{Name: "lsh.gram_fraction", Unit: "ratio", Better: "lower", Exact: true, Moves: mvQuality},

	{Name: "kernel.subgram_s", Unit: "s", Better: "lower", Moves: mvInproc},
	{Name: "kernel.pair_evals", Unit: "count", Better: "lower", Exact: true, Moves: mvInproc},
	{Name: "kernel.mpairs_per_s", Unit: "1/s", Better: "higher", Moves: mvInproc},
	{Name: "kernel.median_sigma_s", Unit: "s", Better: "lower", Moves: mvAll},

	{Name: "spectral.solve_seq_s", Unit: "s", Better: "lower", Moves: "run_s on mix-inproc, partly corpus-local"},
	{Name: "spectral.solve_busy_s", Unit: "s", Better: "lower", Moves: "run_s on mix-inproc, partly corpus-local"},
	{Name: "spectral.solve_inflation", Unit: "ratio", Better: "lower", Moves: mvInproc},
	{Name: "spectral.buckets_dense_eigen", Unit: "count", Better: "lower", Exact: true, Moves: mvInproc},
	{Name: "spectral.buckets_dense_lanczos", Unit: "count", Better: "lower", Exact: true, Moves: mvInproc},
	{Name: "spectral.buckets_sparse_lanczos", Unit: "count", Better: "higher", Exact: true, Moves: mvInproc},
	{Name: "spectral.buckets_embedded", Unit: "count", Better: "higher", Exact: true, Moves: mvTCP},
	{Name: "spectral.buckets_trivial", Unit: "count", Better: "higher", Exact: true, Moves: mvAll},
	{Name: "spectral.buckets_fallback", Unit: "count", Better: "lower", Exact: true, Moves: "accuracy everywhere"},

	{Name: "linalg.lanczos_s", Unit: "s", Better: "lower", Moves: mvInproc},
	{Name: "linalg.lanczos_iters", Unit: "count", Better: "lower", Exact: true, Moves: mvInproc},
	{Name: "kmeans.run_s", Unit: "s", Better: "lower", Moves: mvInproc},
	{Name: "kmeans.iters", Unit: "count", Better: "lower", Exact: true, Moves: mvInproc},
	{Name: "kmeans.embedded_s", Unit: "s", Better: "lower", Moves: mvTCP},

	{Name: "embed.transform_s", Unit: "s", Better: "lower", Moves: mvTCP},
	{Name: "embed.rows", Unit: "count", Better: "lower", Exact: true, Moves: mvTCP},
	{Name: "embed.mrows_per_s", Unit: "1/s", Better: "higher", Moves: mvTCP},
	{Name: "embed.map_side_s", Unit: "s", Better: "lower", Moves: mvShipped},
	{Name: "embed.record_mb", Unit: "MB", Better: "lower", Exact: true, Moves: mvShipped},

	{Name: "shard.write_s", Unit: "s", Better: "lower", Moves: "setup_s on mix-sharded-tcp; run_s on corpus-local"},
	{Name: "shard.write_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "setup_s on mix-sharded-tcp; run_s on corpus-local"},
	{Name: "shard.stream_s", Unit: "s", Better: "lower", Moves: mvShards},
	{Name: "shard.stream_mb_per_s", Unit: "MB/s", Better: "higher", Moves: mvShards},
	{Name: "shard.gather_s", Unit: "s", Better: "lower", Moves: mvShards},
	{Name: "shard.gather_krows_per_s", Unit: "1/s", Better: "higher", Moves: mvShards},
	{Name: "shard.read_mb", Unit: "MB", Better: "lower", Exact: true, Moves: mvShards},
	{Name: "shard.read_ops", Unit: "count", Better: "lower", Exact: true, Moves: mvShards},
	{Name: "shard.coalesced_share", Unit: "ratio", Better: "higher", Exact: true, Moves: mvShards},
	{Name: "shard.read_amp", Unit: "ratio", Better: "lower", Exact: true, Moves: mvShards},

	{Name: "mapreduce.job_lsh_s", Unit: "s", Better: "lower", Moves: "run_s on the three MapReduce workloads"},
	{Name: "mapreduce.job_cluster_s", Unit: "s", Better: "lower", Moves: "run_s on the three MapReduce workloads"},
	{Name: "mapreduce.map_tasks", Unit: "count", Better: "lower", Exact: true, Moves: mvTCP},
	{Name: "mapreduce.reduce_tasks", Unit: "count", Better: "lower", Exact: true, Moves: mvTCP},
	{Name: "mapreduce.map_outputs", Unit: "count", Better: "lower", Exact: true, Moves: mvTCP},
	{Name: "mapreduce.shuffle_mb", Unit: "MB", Better: "lower", Moves: mvShipped},
	{Name: "mapreduce.wire_out_mb", Unit: "MB", Better: "lower", Moves: mvShipped},
	{Name: "mapreduce.wire_in_mb", Unit: "MB", Better: "lower", Moves: mvShipped},
	{Name: "mapreduce.wire_amp", Unit: "ratio", Better: "lower", Moves: mvShipped},
	{Name: "mapreduce.encode_s", Unit: "s", Better: "lower", Moves: mvShipped},
	{Name: "mapreduce.decode_s", Unit: "s", Better: "lower", Moves: mvShipped},
	{Name: "mapreduce.spill_mb", Unit: "MB", Better: "lower", Moves: mvSharded},
	{Name: "mapreduce.spill_s", Unit: "s", Better: "lower", Moves: mvSharded},
	{Name: "mapreduce.flate_saved_mb", Unit: "MB", Better: "higher", Moves: mvSharded},
	{Name: "mapreduce.flate_s", Unit: "s", Better: "lower", Moves: mvSharded},
	{Name: "mapreduce.map_busy_s", Unit: "s", Better: "lower", Moves: mvCorpus},
	{Name: "mapreduce.reduce_busy_s", Unit: "s", Better: "lower", Moves: mvCorpus},
	{Name: "mapreduce.idle_share", Unit: "ratio", Better: "lower", Moves: mvCorpus},
	{Name: "mapreduce.wire_probe_mb_per_s", Unit: "MB/s", Better: "higher", Moves: mvShipped},
	{Name: "mapreduce.merge_probe_mpairs_per_s", Unit: "1/s", Better: "higher", Moves: mvSharded},

	{Name: "corpus.ingest_s", Unit: "s", Better: "lower", Moves: mvCorpus},
	{Name: "corpus.docs_per_s", Unit: "1/s", Better: "higher", Moves: mvCorpus},
	{Name: "corpus.generate_s", Unit: "s", Better: "lower", Moves: mvCorpus},
	{Name: "text.clean_s", Unit: "s", Better: "lower", Moves: mvCorpus},
	{Name: "text.docs_per_s", Unit: "1/s", Better: "higher", Moves: mvCorpus},

	{Name: "emr.model_2node_s", Unit: "s", Better: "lower", Exact: true, Moves: mvTracking},
	{Name: "emr.model_error", Unit: "ratio", Better: "lower", Moves: mvTracking},
	{Name: "emr.model_disk_mb", Unit: "MB", Better: "lower", Exact: true, Moves: mvTracking},
	{Name: "emr.sim_s", Unit: "s", Better: "lower", Moves: mvTracking},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: mvTracking},
}

// benchSpec is BENCHMARK.json, the contract the driver reads.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findRoot returns the checkout root: the working directory when the
// benchmark runs through bench/run.sh, its parent under `go run .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: BENCHMARK.json not found in . or ..; run from the checkout root or from bench/")
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}
