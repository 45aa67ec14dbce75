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
	// The driver aggregates executor counters from both stages onto the
	// result; over TCP that includes real wire traffic.
	if res.MapReduce == nil {
		t.Fatal("Result.MapReduce not populated by the MapReduce driver")
	}
	if res.MapReduce.MapTasks == 0 || res.MapReduce.ReduceTasks == 0 {
		t.Fatalf("stage counters not aggregated: %+v", res.MapReduce)
	}
	if res.MapReduce.WireBytesOut <= 0 || res.MapReduce.WireBytesIn <= 0 {
		t.Fatalf("TCP wire counters not aggregated: %+v", res.MapReduce)
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

// TestStageRecordCounts pins what the two jobs ship: stage 1 emits, per
// map task, one record per distinct (table, signature) among the task's
// rows — counted here from the plan's own hashers over the split each
// source makes — and stage 2 one record per bucket, on both sources, on
// Local and over TCP, in memory and spilled. The record-carried source
// ships its rows in ⌈N/blockRows⌉ blocks.
func TestStageRecordCounts(t *testing.T) {
	const n, perShard = 2*blockRows + 300, 500
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
	// distinct sums, over tasks of split consecutive rows, the (table,
	// signature) pairs among each task's rows.
	distinct := func(split int) int {
		total := 0
		for start := 0; start < n; start += split {
			seen := map[[2]uint64]bool{}
			for i := start; i < min(start+split, n); i++ {
				for tab, h := range hashers {
					seen[[2]uint64{uint64(tab), h.Signature(l.Points.Row(i))}] = true
				}
			}
			total += len(seen)
		}
		return total
	}
	dir := writeShardDir(t, l.Points, perShard)

	m := loopbackCluster(t, 2)

	for _, src := range []struct {
		name  string
		split int // rows per stage-1 input record, and so per map task
		run   func(Config, mapreduce.Executor) (*Result, error)
	}{
		{"shipped", blockRows, func(c Config, e mapreduce.Executor) (*Result, error) {
			return Run(bg, Source{Points: l.Points}, onExec(e, c))
		}},
		{"sharded", perShard, func(c Config, e mapreduce.Executor) (*Result, error) {
			return Run(bg, Source{Dir: dir}, onExec(e, c))
		}},
	} {
		stage1 := distinct(src.split)
		var first [2][3]int // per job: input records, map outputs, output records
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
				var got [2][3]int
				for i, ctr := range captured.ctrs {
					got[i] = [3]int{ctr.InputRecords, ctr.MapOutputs, ctr.OutputRecords}
				}
				if len(captured.ctrs) != 2 || got[0][0] != (n+src.split-1)/src.split || got[0][1] != stage1 || got[1][2] != len(res.Buckets) {
					t.Fatalf("%s: jobs counted %v (input, map output, output records); want stage 1 to read %d and emit %d, stage 2 to emit one per bucket (%d)",
						name, got, (n+src.split-1)/src.split, stage1, len(res.Buckets))
				}
				if first == ([2][3]int{}) {
					first = got
				} else if got != first {
					t.Fatalf("%s: jobs counted %v, the first run %v", name, got, first)
				}
			}
		}
	}
}

// BenchmarkStages runs each source's two jobs on Local at 32 768 × 16 —
// a quarter of the benchmark's out-of-core workload — with one Config,
// and reports the records both stages shipped (map outputs plus output
// records) per op, the stage-2 shuffle bytes per op (stage2-B/op: index
// lists for the sharded source, raw bucket rows for the shipped one),
// and allocs/op.
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
				stage2 += captured.ctrs[1].ShuffleBytes
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
