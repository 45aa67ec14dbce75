package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/spectral"
)

// blobPoints builds k well-separated Gaussian blobs of per points each
// in d dimensions, returning the matrix and the true blob of each row.
// Separation and noise are chosen so a tight explicit Sigma thresholds
// cross-blob similarities below epsilon.
func blobPoints(seed int64, k, per, d int, sep, noise float64) (*matrix.Dense, []int) {
	rng := rand.New(rand.NewSource(seed))
	pts := matrix.NewDense(k*per, d)
	truth := make([]int, k*per)
	for c := 0; c < k; c++ {
		for i := 0; i < per; i++ {
			row := pts.Row(c*per + i)
			for j := range row {
				row[j] = float64(c)*sep + noise*rng.NormFloat64()
			}
			truth[c*per+i] = c
		}
	}
	return pts, truth
}

// TestClusterSolveCounters: a default dense run must report a solver
// for every bucket, and the Result aggregates must equal the per-bucket
// sums.
func TestClusterSolveCounters(t *testing.T) {
	l := mixture(t, 200, 16, 4, 0.02, 31)
	res, err := Run(bg, Source{Points: l.Points}, Config{K: 4, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvers == nil {
		t.Fatal("Solvers map not populated")
	}
	counted := 0
	var nanos int64
	for _, b := range res.Buckets {
		if b.Solver == "" {
			t.Fatalf("bucket %x has no solver label", b.Signature)
		}
		if b.Solver == spectral.SolverSparseLanczos {
			t.Fatalf("default config must never go sparse, bucket %x did", b.Signature)
		}
		nanos += b.SolveNanos
	}
	for _, c := range res.Solvers {
		counted += c
	}
	if counted != len(res.Buckets) {
		t.Fatalf("Solvers counts %d buckets, partition has %d", counted, len(res.Buckets))
	}
	if nanos != res.SolveNanos {
		t.Fatalf("SolveNanos %d != bucket sum %d", res.SolveNanos, nanos)
	}
}

// TestClusterSparseMode: with a tight bandwidth, few signature bits
// (big buckets spanning several blobs) and sparse mode on, at least one
// bucket must solve through the CSR path, shrink the reported Gram
// storage below the dense total, and still recover the blobs.
func TestClusterSparseMode(t *testing.T) {
	pts, truth := blobPoints(41, 8, 100, 16, 12, 0.3)
	cfg := Config{K: 8, M: 1, Sigma: 1.0, Seed: 42, SparseCutoff: 128, Epsilon: 1e-4}
	res, err := Run(bg, Source{Points: pts}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvers[spectral.SolverSparseLanczos] == 0 {
		t.Fatalf("no bucket took the sparse path: %v", res.Solvers)
	}
	var dense int64
	for _, b := range res.Buckets {
		dense += 4 * int64(b.Size) * int64(b.Size)
		if b.Solver == spectral.SolverSparseLanczos {
			if b.NNZ == 0 || b.Fill <= 0 || b.Fill > spectral.MaxSparseFill {
				t.Fatalf("sparse bucket stats: %+v", b)
			}
			if b.GramBytes >= 4*int64(b.Size)*int64(b.Size) {
				t.Fatalf("sparse bucket %x stores %d bytes, dense is %d", b.Signature, b.GramBytes, 4*int64(b.Size)*int64(b.Size))
			}
		}
	}
	if res.GramBytes >= dense {
		t.Fatalf("sparse run Gram %d not below dense %d", res.GramBytes, dense)
	}
	acc, err := metricsAccuracy(truth, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("sparse-mode accuracy = %v", acc)
	}
}

// TestClusterSparseModeWorkerInvariant: the sparse engine's labels and
// solver policy must not depend on GOMAXPROCS.
func TestClusterSparseModeWorkerInvariant(t *testing.T) {
	pts, _ := blobPoints(51, 8, 80, 12, 10, 0.3)
	cfg := Config{K: 8, M: 1, Sigma: 1.0, Seed: 52, SparseCutoff: 128, Epsilon: 1e-4}
	setProcs(t, 1)
	base, err := Run(bg, Source{Points: pts}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		setProcs(t, workers)
		res, err := Run(bg, Source{Points: pts}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Labels {
			if res.Labels[i] != base.Labels[i] {
				t.Fatalf("workers=%d: label[%d] = %d vs %d", workers, i, res.Labels[i], base.Labels[i])
			}
		}
		for bi, b := range res.Buckets {
			want := base.Buckets[bi]
			if b.Solver != want.Solver || b.NNZ != want.NNZ || b.GramBytes != want.GramBytes {
				t.Fatalf("workers=%d: bucket %x policy drifted: %+v vs %+v", workers, b.Signature, b, want)
			}
		}
	}
}

// TestResolveValidatesEngineConfig: the solve-engine knobs are
// validated with the rest of the configuration, and a dial that only
// acts with its partner is an error without it rather than ignored.
func TestResolveValidatesEngineConfig(t *testing.T) {
	l := mixture(t, 20, 4, 2, 0.05, 61)
	bad := []Config{
		{K: 2, SparseCutoff: -1},
		{K: 2, Epsilon: -0.1},
		{K: 2, Epsilon: 1.0},
		{K: 2, SparseCutoff: 64},
		{K: 2, Epsilon: 0.5},
		{K: 2, EmbedCutoff: 64},
	}
	for _, cfg := range bad {
		if _, err := Run(bg, Source{Points: l.Points}, cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("cfg %+v: err = %v, want ErrBadConfig", cfg, err)
		}
	}
}

// TestMapReduceCarriesSolverStats: the MapReduce runner must report
// the same per-bucket solver stats as the local driver — the
// stats travel in each bucket's stage-2 result record.
func TestMapReduceCarriesSolverStats(t *testing.T) {
	pts, _ := blobPoints(71, 8, 60, 12, 10, 0.3)
	cfg := Config{K: 8, M: 1, Sigma: 1.0, Seed: 72, SparseCutoff: 128, Epsilon: 1e-4}
	local, err := Run(bg, Source{Points: pts}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if local.Solvers[spectral.SolverSparseLanczos] == 0 {
		t.Fatalf("fixture never goes sparse: %v", local.Solvers)
	}
	viaShipped, err := Run(bg, Source{Points: pts}, onExec(&mapreduce.Local{Workers: 3}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"shipped": viaShipped} {
		if res.GramBytes != local.GramBytes {
			t.Fatalf("%s: GramBytes %d vs local %d", name, res.GramBytes, local.GramBytes)
		}
		for bi, b := range res.Buckets {
			want := local.Buckets[bi]
			if b.Solver != want.Solver || b.NNZ != want.NNZ || b.Fill != want.Fill || b.GramBytes != want.GramBytes {
				t.Fatalf("%s: bucket %x stats %+v, local %+v", name, b.Signature, b, want)
			}
			if b.SolveNanos <= 0 && b.Solver != SolverTrivial {
				t.Fatalf("%s: bucket %x missing solve time", name, b.Signature)
			}
		}
		for solver, count := range local.Solvers {
			if res.Solvers[solver] != count {
				t.Fatalf("%s: Solvers[%s] = %d, local %d", name, solver, res.Solvers[solver], count)
			}
		}
	}
}

// TestBucketStatsCodecRoundTrip pins the stage-2 result record: the
// stats, K and labels of a bucket round-trip exactly (an empty bucket
// and an empty solver name included), a label costs a byte below K =
// 128, and every truncation is refused. TestPackedStatsCodec pins the
// record's header.
func TestBucketStatsCodecRoundTrip(t *testing.T) {
	labels := make([]int, 300)
	for i := range labels {
		labels[i] = (7 * i) % 90
	}
	for _, in := range []bucketSolution{
		{Labels: labels, K: 90, Solver: spectral.SolverSparseLanczos, NNZ: 12345, Fill: 0.17, SolveNanos: 987654321, GramBytes: 98760},
		{Labels: []int{0}, K: 1, Solver: "dense", NNZ: 1, Fill: 0.625, SolveNanos: 1 << 40, GramBytes: 9999},
		{},
	} {
		blob := encodeBucketResult(in)
		var out bucketSolution
		if err := decodeBucketResult(blob, &out); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Labels, in.Labels) || out.K != in.K || out.Solver != in.Solver || out.NNZ != in.NNZ ||
			out.Fill != in.Fill || out.SolveNanos != in.SolveNanos || out.GramBytes != in.GramBytes {
			t.Fatalf("round trip %+v -> %+v", in, out)
		}
		if len(blob) > 40+len(in.Solver)+len(in.Labels) {
			t.Fatalf("%d labels take a %d-byte record", len(in.Labels), len(blob))
		}
		for cut := 0; cut < len(blob); cut++ {
			if err := decodeBucketResult(blob[:cut], &out); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(blob))
			}
		}
	}
}
