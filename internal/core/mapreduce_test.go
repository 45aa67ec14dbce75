package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

func matrixOfSize(r, c int) *matrix.Dense { return matrix.NewDense(r, c) }

func TestClusterMapReduceMatchesLocalDriver(t *testing.T) {
	l := mixture(t, 180, 12, 3, 0.03, 20)
	direct, err := Run(bg, Source{Points: l.Points}, Config{K: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	viaMR, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{}, Config{K: 3, Seed: 21}))
	if err != nil {
		t.Fatal(err)
	}
	// Same partition, same per-bucket seeds: identical partitions.
	agree, err := metrics.Accuracy(direct.Labels, viaMR.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Fatalf("MapReduce driver disagrees with local driver: overlap %v", agree)
	}
	if direct.GramBytes != viaMR.GramBytes {
		t.Fatalf("GramBytes differ: %d vs %d", direct.GramBytes, viaMR.GramBytes)
	}
	if direct.Clusters != viaMR.Clusters {
		t.Fatalf("cluster counts differ: %d vs %d", direct.Clusters, viaMR.Clusters)
	}
}

func TestClusterMapReduceAccuracy(t *testing.T) {
	l := mixture(t, 160, 16, 4, 0.02, 22)
	res, err := Run(bg, Source{Points: l.Points}, onExec(&mapreduce.Local{Workers: 4}, Config{K: 4, Seed: 23}))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestClusterMapReduceOverTCP(t *testing.T) {
	l := mixture(t, 100, 8, 2, 0.03, 24)
	// The jobs travel by registered name plus Conf, and the in-process
	// TCP workers share this package's factory registry — the same way
	// Hadoop workers share the job jar.
	m := loopbackCluster(t, 2)

	res, err := Run(bg, Source{Points: l.Points}, onExec(m, Config{K: 2, Seed: 25}))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("TCP accuracy = %v", acc)
	}
	// The driver puts the executor's counters on the result; over TCP
	// that includes real wire traffic. Stage 1 hashed the resident rows in
	// the driver, so the one job is stage 2, whose map is an identity: no
	// map task crosses the wire, its reduce tasks do.
	if res.MapReduce == nil {
		t.Fatal("Result.MapReduce not populated by the MapReduce driver")
	}
	if res.MapReduce.MapTasks != 0 || res.MapReduce.ReduceTasks == 0 {
		t.Fatalf("want stage 2's reduce tasks alone: %+v", res.MapReduce)
	}
	if res.MapReduce.WireBytesOut <= 0 || res.MapReduce.WireBytesIn <= 0 {
		t.Fatalf("TCP wire counters not aggregated: %+v", res.MapReduce)
	}
}

// TestPointsExecutorRunsStage2Only pins where stage 1 runs: a map runs
// where its input lives, so a resident matrix is hashed in the driver
// and a Points run submits only the stage-2 job, on Local and over TCP,
// while a Dir run's mappers read their own shards in the stage-1 job.
// Every route labels as the in-process pool does.
func TestPointsExecutorRunsStage2Only(t *testing.T) {
	l := mixture(t, 600, 8, 4, 0.03, 26)
	cfg := Config{K: 4, Seed: 27, Tables: 2, FitSample: 600}
	want, err := Run(bg, Source{Points: l.Points}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeShardDir(t, l.Points, 128)
	m := loopbackCluster(t, 2)
	for _, exec := range []mapreduce.Executor{&mapreduce.Local{}, m} {
		for _, c := range []struct {
			src  Source
			jobs []string
		}{
			{Source{Points: l.Points}, []string{"dasc-cluster"}},
			{Source{Dir: dir}, []string{"dasc-lsh", "dasc-cluster"}},
		} {
			spy := &capturingExec{exec: exec}
			res, err := Run(bg, c.src, onExec(spy, cfg))
			if err != nil {
				t.Fatalf("%T, dir %q: %v", exec, c.src.Dir, err)
			}
			if names := spy.names(); !slices.Equal(names, c.jobs) {
				t.Errorf("%T, dir %q: submitted %v, want %v", exec, c.src.Dir, names, c.jobs)
			}
			if !slices.Equal(res.Labels, want.Labels) {
				t.Errorf("%T, dir %q: labels differ from the in-process run's", exec, c.src.Dir)
			}
		}
	}
}

func TestIndexCodecRoundTrip(t *testing.T) {
	in := []int{0, 1, 42, 1 << 20}
	out, err := decodeIndices(encodeIndices(in))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(in) != fmt.Sprint(out) {
		t.Fatalf("round trip: %v -> %v", in, out)
	}
	if _, err := decodeIndices([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for a payload longer than its count")
	}
}

// FuzzIndexList drives the index-list decoder — every stage-1 value and
// the shard-backed source's stage-2 record — over arbitrary bytes: no
// panic, no list longer than the bytes can describe, and an accepted list
// survives a second round trip.
func FuzzIndexList(f *testing.F) {
	f.Add(encodeIndices([]int{0, 1, 42, 1 << 20}))
	f.Add(encodeIndices([]int{7, 3, 7}))
	f.Add([]byte{200})
	f.Add(append([]byte{1}, binary.AppendVarint(nil, 1<<31)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := decodeIndices(data)
		if err != nil {
			return
		}
		if len(ids) >= len(data) {
			t.Fatalf("%d indices out of %d bytes", len(ids), len(data))
		}
		for _, idx := range ids {
			if idx < 0 || idx > math.MaxInt32 {
				t.Fatalf("accepted index %d", idx)
			}
		}
		back, err := decodeIndices(encodeIndices(ids))
		if err != nil || !slices.Equal(back, ids) {
			t.Fatalf("re-encoded %v decodes to %v, %v", ids, back, err)
		}
	})
}

// FuzzBucketResult drives the stage-2 result decoder over arbitrary
// bytes: no panic, no label list or solver name longer than the bytes
// can describe, every accepted label below K, and an accepted record
// survives a second round trip.
func FuzzBucketResult(f *testing.F) {
	f.Add(encodeBucketResult(bucketSolution{Labels: []int{0, 1, 0}, K: 2, Solver: "dense-eigen", NNZ: 9, Fill: 1, SolveNanos: 5, GramBytes: 36}))
	f.Add(encodeBucketResult(bucketSolution{}))
	f.Add([]byte{resultKind, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s bucketSolution
		if err := decodeBucketResult(data, &s); err != nil {
			return
		}
		if len(s.Labels)+len(s.Solver) >= len(data) {
			t.Fatalf("%d labels and a %d-byte solver name out of %d bytes", len(s.Labels), len(s.Solver), len(data))
		}
		for _, l := range s.Labels {
			if l < 0 || l >= s.K {
				t.Fatalf("accepted label %d for K = %d", l, s.K)
			}
		}
		var back bucketSolution
		if err := decodeBucketResult(encodeBucketResult(s), &back); err != nil ||
			!slices.Equal(back.Labels, s.Labels) || back.K != s.K || back.Solver != s.Solver || back.NNZ != s.NNZ ||
			math.Float64bits(back.Fill) != math.Float64bits(s.Fill) || back.SolveNanos != s.SolveNanos || back.GramBytes != s.GramBytes {
			t.Fatalf("re-encoded %+v decodes to %+v, %v", s, back, err)
		}
	})
}

// TestStageRecordCounts pins what the jobs ship: on the shard source,
// stage 1 reads one shard row range per map task and emits, per task,
// one record per distinct (table, signature) among its rows — counted
// here from the plan's own hashers — and on both sources stage 2 emits
// one record per bucket, on Local and over TCP, in memory and spilled.
// The resident-points source hashes in the driver and submits stage 2
// alone.
func TestStageRecordCounts(t *testing.T) {
	const n, perShard = 2348, 500
	l := mixture(t, n, 8, 16, 0.05, 70)
	cfg := Config{K: 16, Seed: 71, M: 6, P: -1, Tables: 2, MaxMergedBucket: 100, EmbedDim: 8, EmbedCutoff: 200, FitSample: n}
	p, err := NewPlan(l.Points, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	hashers, err := p.Hashers()
	if err != nil {
		t.Fatal(err)
	}
	// stage1 sums, over shards of perShard consecutive rows, the (table,
	// signature) pairs among each shard's rows.
	stage1 := 0
	for start := 0; start < n; start += perShard {
		seen := map[[2]uint64]bool{}
		for i := start; i < min(start+perShard, n); i++ {
			for tab, h := range hashers {
				seen[[2]uint64{uint64(tab), h.Signature(l.Points.Row(i))}] = true
			}
		}
		stage1 += len(seen)
	}
	dir := writeShardDir(t, l.Points, perShard)

	m := loopbackCluster(t, 2)

	for _, src := range []struct {
		name string
		jobs []string
		run  func(Config, mapreduce.Executor) (*Result, error)
	}{
		{"shipped", []string{"dasc-cluster"}, func(c Config, e mapreduce.Executor) (*Result, error) {
			return Run(bg, Source{Points: l.Points}, onExec(e, c))
		}},
		{"sharded", []string{"dasc-lsh", "dasc-cluster"}, func(c Config, e mapreduce.Executor) (*Result, error) {
			return Run(bg, Source{Dir: dir}, onExec(e, c))
		}},
	} {
		var first [][3]int // per job: input records, map outputs, output records
		for _, exec := range []mapreduce.Executor{&mapreduce.Local{}, m} {
			for _, spill := range []int64{0, 512} {
				name := fmt.Sprintf("%s/%T/spill=%d", src.name, exec, spill)
				captured := &capturingExec{exec: exec}
				c := cfg
				c.SpillBytes = spill
				res, err := src.run(c, captured)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if names := captured.names(); !slices.Equal(names, src.jobs) {
					t.Fatalf("%s: submitted %v, want %v", name, names, src.jobs)
				}
				var got [][3]int
				for _, ctr := range captured.ctrs {
					got = append(got, [3]int{ctr.InputRecords, ctr.MapOutputs, ctr.OutputRecords})
				}
				if lsh := captured.stage("dasc-lsh"); lsh != nil && (lsh.InputRecords != (n+perShard-1)/perShard || lsh.MapOutputs != stage1) {
					t.Fatalf("%s: stage 1 read %d records and emitted %d; want one per shard (%d) and %d", name,
						lsh.InputRecords, lsh.MapOutputs, (n+perShard-1)/perShard, stage1)
				}
				if out := captured.stage("dasc-cluster").OutputRecords; out != len(res.Buckets) {
					t.Fatalf("%s: stage 2 emitted %d records, want one per bucket (%d)", name, out, len(res.Buckets))
				}
				if first == nil {
					first = got
				} else if !slices.Equal(got, first) {
					t.Fatalf("%s: jobs counted %v (input, map output, output records), the first run %v", name, got, first)
				}
			}
		}
	}
}

// BenchmarkStages runs each source's jobs on Local at 32 768 × 16 — a
// quarter of the benchmark's out-of-core workload — with one Config:
// both jobs on the sharded source, stage 2 alone on the shipped one,
// whose stage 1 hashes in the driver. It reports the records the jobs
// shipped (map outputs plus output records) per op, the stage-2 shuffle
// bytes per op (stage2-B/op: index lists for both sources — the shipped
// one's become rows only as their reduce tasks run), and allocs/op.
func BenchmarkStages(b *testing.B) {
	const n, d = 32768, 16
	l, err := dataset.Mixture(dataset.MixtureConfig{N: n, D: d, K: 64, Noise: 0.03, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dir := writeShardDir(b, l.Points, 0)
	cfg := Config{K: 64, Seed: 1, EmbedDim: 64, EmbedCutoff: 1024}
	for _, src := range []struct {
		name string
		run  func(mapreduce.Executor) (*Result, error)
	}{
		{"sharded", func(e mapreduce.Executor) (*Result, error) { return Run(bg, Source{Dir: dir}, onExec(e, cfg)) }},
		{"shipped", func(e mapreduce.Executor) (*Result, error) { return Run(bg, Source{Points: l.Points}, onExec(e, cfg)) }},
	} {
		b.Run(src.name, func(b *testing.B) {
			records, stage2 := 0, int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				captured := &capturingExec{}
				res, err := src.run(captured)
				if err != nil {
					b.Fatal(err)
				}
				records += res.MapReduce.MapOutputs + res.MapReduce.OutputRecords
				stage2 += captured.stage("dasc-cluster").ShuffleBytes
			}
			b.ReportMetric(float64(records)/float64(b.N), "records/op")
			b.ReportMetric(float64(stage2)/float64(b.N), "stage2-B/op")
		})
	}
}

// TestClusterOneBucketEmpty feeds the solve an empty bucket — what an
// index list with count zero decodes to on a worker: an empty solution,
// not a panic.
func TestClusterOneBucketEmpty(t *testing.T) {
	l := mixture(t, 20, 4, 2, 0.03, 5)
	solver, err := newBucketSolver(solvePolicy{N: 20, Cols: 4, K: 2, Sigma: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var scratch []float64
	sol, err := solver.solve(bucket{points: l.Points}, &scratch)
	if err != nil || len(sol.Labels) != 0 {
		t.Fatalf("empty bucket: %+v, %v", sol, err)
	}
}
