package core

import (
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/spectral"
)

// embedTestConfig is the embedded-mode dial of the golden cross-driver
// corpus: the 240-point mixture partitions into a 180-point bucket
// (claimed by the embed policy at cutoff 64) and a 60-point one (kept on
// the exact path — its proportional k is 1, trivial).
func embedTestConfig() Config {
	return Config{K: 4, Seed: 41, EmbedDim: 32, EmbedCutoff: 64}
}

// TestEmbeddedAllDriversIdenticalLabels extends the cross-driver
// identity contract to embed mode: the local pool, the incremental
// waves, the sharded runner and the shipped runner must produce bitwise
// identical labels and bucket reports, with the embedded solver actually
// engaged — every one of them embedding where the bucket is solved.
func TestEmbeddedAllDriversIdenticalLabels(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	cfg := embedTestConfig()

	batch, err := Cluster(l.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Solvers[spectral.SolverEmbedded] == 0 {
		t.Fatalf("embedded solver never engaged: %v", batch.Solvers)
	}
	if acc, err := metricsAccuracy(l.Labels, batch.Labels); err != nil || acc < 0.9 {
		t.Fatalf("embedded accuracy = %v (%v)", acc, err)
	}

	inc, err := ClusterIncremental(l.Points, cfg, batch.GramBytes)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.FitSample = l.Points.Rows() // the full-matrix fit of the in-memory drivers
	sharded, err := ClusterMapReduceSharded(writeShardDir(t, l.Points, 64), scfg, &mapreduce.Local{})
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := ClusterMapReduceShipped(l.Points, cfg, &mapreduce.Local{})
	if err != nil {
		t.Fatal(err)
	}

	others := map[string]*Result{
		"incremental": &inc.Result,
		"sharded":     sharded,
		"shipped":     shipped,
	}
	for name, res := range others {
		if !reflect.DeepEqual(res.Labels, batch.Labels) {
			t.Fatalf("%s labels differ from batch", name)
		}
		if !reflect.DeepEqual(res.Solvers, batch.Solvers) {
			t.Fatalf("%s Solvers = %v, batch %v", name, res.Solvers, batch.Solvers)
		}
		if res.GramBytes != batch.GramBytes {
			t.Fatalf("%s GramBytes = %d, batch %d", name, res.GramBytes, batch.GramBytes)
		}
		for bi, b := range res.Buckets {
			want := batch.Buckets[bi]
			b.SolveNanos, want.SolveNanos = 0, 0
			if b != want {
				t.Fatalf("%s bucket %d = %+v, batch %+v", name, bi, b, want)
			}
		}
	}

	// Both sources ship raw rows and embed in the reducer, so neither
	// meters a driver-side embed.
	for name, res := range map[string]*Result{"shipped": shipped, "sharded": sharded} {
		if res.MapReduce == nil || res.MapReduce.EmbedBytes != 0 || res.MapReduce.EmbedNanos != 0 {
			t.Fatalf("%s metered a driver-side embed: %+v", name, res.MapReduce)
		}
	}
}

// TestEmbeddedShippedShipsRawRows pins that embedding never changes what
// travels: the shipped driver's stage-2 records are the buckets' raw
// rows whether or not the plan embeds them, so the stage-2 shuffle is
// the same to the byte with the embed on and off (at D = 48 > d′ = 8,
// where shipping embedded rows would have been smaller), and the
// embedded run still solves embedded and agrees with Cluster.
func TestEmbeddedShippedShipsRawRows(t *testing.T) {
	l := mixture(t, 240, 48, 4, 0.03, 40)
	stage2 := func(cfg Config) (*Result, int64) {
		t.Helper()
		var captured capturingExec
		res, err := ClusterMapReduceShipped(l.Points, cfg, &captured)
		if err != nil {
			t.Fatal(err)
		}
		if len(captured.ctrs) != 2 {
			t.Fatalf("runner submitted %d jobs, want the two DASC stages", len(captured.ctrs))
		}
		return res, captured.ctrs[1].ShuffleBytes
	}
	cfg := Config{K: 4, Seed: 41}
	_, rawBytes := stage2(cfg)
	cfg.EmbedDim, cfg.EmbedCutoff = 8, 64
	emb, embBytes := stage2(cfg)
	if embBytes != rawBytes || rawBytes == 0 {
		t.Fatalf("stage-2 shuffle is %d bytes with the embed on, %d with it off", embBytes, rawBytes)
	}
	if emb.Solvers[spectral.SolverEmbedded] == 0 {
		t.Fatalf("embedded solver never engaged: %v", emb.Solvers)
	}
	want, err := Cluster(l.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(emb.Labels, want.Labels) {
		t.Fatal("shipped embedded labels differ from Cluster's")
	}
}

// TestEmbeddedDeterministicAcrossWorkers repeats the GOMAXPROCS
// determinism pin in embed mode: the embedded transform and k-means run
// inside the racing bucket pool, so any order dependence in the
// embedding path shows up here (and under -race in CI).
func TestEmbeddedDeterministicAcrossWorkers(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	cfg := embedTestConfig()

	run := func(procs int) *Result {
		t.Helper()
		setProcs(t, procs)
		res, err := Cluster(l.Points, cfg)
		if err != nil {
			t.Fatalf("Cluster(GOMAXPROCS=%d): %v", procs, err)
		}
		return res
	}

	base := run(1)
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			res := run(workers)
			if !reflect.DeepEqual(res.Labels, base.Labels) {
				t.Fatalf("workers=%d rep=%d: labels differ", workers, rep)
			}
			for bi, b := range res.Buckets {
				want := base.Buckets[bi]
				b.SolveNanos, want.SolveNanos = 0, 0
				if b != want {
					t.Fatalf("workers=%d rep=%d: bucket %d = %+v, baseline %+v",
						workers, rep, bi, b, want)
				}
			}
		}
	}
}

// TestEmbedConfigValidation covers the resolve-layer checks of the
// embed dial.
func TestEmbedConfigValidation(t *testing.T) {
	l := mixture(t, 60, 6, 2, 0.05, 3)
	for name, cfg := range map[string]Config{
		"negative dim":    {K: 2, EmbedDim: -2},
		"odd dim":         {K: 2, EmbedDim: 7},
		"negative cutoff": {K: 2, EmbedDim: 8, EmbedCutoff: -1},
	} {
		if _, err := Cluster(l.Points, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Zero cutoff with a positive dim resolves to the default.
	res, err := Cluster(l.Points, Config{K: 2, Seed: 1, EmbedDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 60 {
		t.Fatalf("labels = %d", len(res.Labels))
	}
}
