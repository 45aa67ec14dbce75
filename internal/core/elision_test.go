package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/mrtest"
	"repro/internal/spectral"
)

// capturingExec records every job a runner submits, with its input and
// its counters, and runs it on exec (the Local executor when nil) so the
// runner can carry on to stage 2.
type capturingExec struct {
	exec   mapreduce.Executor
	jobs   []*mapreduce.Job
	inputs [][]mapreduce.Pair
	ctrs   []*mapreduce.Counters
}

func (c *capturingExec) Run(job *mapreduce.Job, input []mapreduce.Pair) ([]mapreduce.Pair, *mapreduce.Counters, error) {
	c.jobs = append(c.jobs, job)
	c.inputs = append(c.inputs, input)
	exec := c.exec
	if exec == nil {
		exec = &mapreduce.Local{}
	}
	out, ctr, err := exec.Run(job, input)
	c.ctrs = append(c.ctrs, ctr)
	return out, ctr, err
}

// zeroSolveNanos canonicalizes a stage-2 output for comparison: the
// per-bucket result records carry the solve's wall time, the one field
// of the stream that two executions of the same reducer do not share.
func zeroSolveNanos(pairs []mapreduce.Pair) {
	for i, p := range pairs {
		var sol BucketSolution
		if err := decodeBucketResult(p.Value, &sol); err != nil {
			continue // left as is; the comparison will show it
		}
		sol.SolveNanos = 0
		pairs[i].Value = encodeBucketResult(sol)
	}
}

// TestCoreJobsElisionMatchesExecution is the cross-source table: the one
// MapReduce job pair over each of the two row sources, with the
// shuffle in memory and spilled, compressed and not. Every run must
// yield exactly what Cluster yields — labels, cluster count, Gram
// accounting, per-bucket solver — and the two jobs each source submits
// are captured with their real input and held to their identity
// declarations: re-run with the declared phase elided and executed, on
// Local and over TCP, at every spill budget, compressed and not.
//
// The dial puts buckets on both sides of the embed policy: above
// EmbedCutoff (embedded in the reducer, by either source) and below it
// with more than one cluster to find (the exact Gram path). The
// record-carried source ships both as raw 'B' records: the plan changes
// how a bucket is solved, never what travels.
func TestCoreJobsElisionMatchesExecution(t *testing.T) {
	l := mixture(t, 400, 12, 6, 0.05, 60)
	cfg := Config{K: 12, Seed: 61, M: 6, P: -1, Tables: 2, MaxMergedBucket: 100, EmbedDim: 16, EmbedCutoff: 100, FitSample: 400}
	want, err := Cluster(l.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Solvers[spectral.SolverEmbedded] == 0 || want.Solvers[spectral.SolverDenseEigen] == 0 {
		t.Fatalf("the dial must put buckets on both sides of EmbedCutoff, got %v", want.Solvers)
	}
	dir := writeShardDir(t, l.Points, 64)
	sources := []struct {
		name string
		run  func(cfg Config, exec mapreduce.Executor) (*Result, error)
	}{
		{"shipped", func(cfg Config, exec mapreduce.Executor) (*Result, error) {
			return ClusterMapReduceShipped(l.Points, cfg, exec)
		}},
		{"sharded", func(cfg Config, exec mapreduce.Executor) (*Result, error) {
			return ClusterMapReduceSharded(dir, cfg, exec)
		}},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			var captured capturingExec
			for _, spill := range []int64{0, 512} {
				for _, compress := range []bool{false, true} {
					captured = capturingExec{}
					c := cfg
					c.SpillBytes, c.Compression = spill, compress
					got, err := src.run(c, &captured)
					if err != nil {
						t.Fatalf("SpillBytes=%d Compression=%v: %v", spill, compress, err)
					}
					if !reflect.DeepEqual(got.Labels, want.Labels) || got.Clusters != want.Clusters ||
						got.GramBytes != want.GramBytes || !reflect.DeepEqual(got.Solvers, want.Solvers) {
						t.Fatalf("SpillBytes=%d Compression=%v: %d clusters, %d Gram bytes, solvers %v; Cluster has %d, %d, %v (labels equal: %v)",
							spill, compress, got.Clusters, got.GramBytes, got.Solvers,
							want.Clusters, want.GramBytes, want.Solvers, reflect.DeepEqual(got.Labels, want.Labels))
					}
					if (got.MapReduce.SpillBytes > 0) != (spill > 0) {
						t.Fatalf("SpillBytes=%d: %d bytes spilled", spill, got.MapReduce.SpillBytes)
					}
					if src.name == "sharded" && (got.MapReduce.ShardReadBytes == 0 || got.MapReduce.ShardReadOps == 0) {
						t.Fatalf("shard read accounting missing: %+v", got.MapReduce)
					}
				}
			}
			if len(captured.jobs) != 2 {
				t.Fatalf("runner submitted %d jobs, want the two DASC stages", len(captured.jobs))
			}
			if buckets := len(captured.inputs[1]); buckets < 4 {
				t.Fatalf("stage 2 has only %d buckets; the check wants them spread over the reduce partitions", buckets)
			}
			if src.name == "shipped" {
				kinds := map[byte]int{}
				for _, rec := range captured.inputs[1] {
					kinds[rec.Value[0]]++
				}
				if len(kinds) != 1 || kinds['B'] != len(captured.inputs[1]) {
					t.Fatalf("stage-2 record kinds %v, want every bucket a raw 'B' record", kinds)
				}
			}
			stage1, stage2 := captured.jobs[0], captured.jobs[1]
			if !stage1.IdentityReduce || stage1.IdentityMap {
				t.Errorf("stage 1 (%s) must declare exactly its reduce an identity", stage1.Name)
			}
			if !stage2.IdentityMap || stage2.IdentityReduce {
				t.Errorf("stage 2 (%s) must declare exactly its map an identity", stage2.Name)
			}
			if err := mrtest.CheckElision(stage1, captured.inputs[0], nil); err != nil {
				t.Error(err)
			}
			if err := mrtest.CheckElision(stage2, captured.inputs[1], zeroSolveNanos); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSigKeyMatchesSprintf pins the hand-formatted stage-1 key to the
// fmt form it replaced, byte for byte, and the parser to its inverse.
func TestSigKeyMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sigs := []uint64{0, 1, 0xf, 0x10, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for i := 0; i < 2000; i++ {
		sigs = append(sigs, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for i, sig := range sigs {
		table := i % 256
		key := encodeSigKey(table, sig)
		if want := fmt.Sprintf("%02x:%016x", table, sig); key != want {
			t.Fatalf("encodeSigKey(%d, %#x) = %q, want %q", table, sig, key, want)
		}
		gotTable, gotSig, err := decodeSigKey(key)
		if err != nil || gotTable != table || gotSig != sig {
			t.Fatalf("decodeSigKey(%q) = %d, %#x, %v", key, gotTable, gotSig, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = decodeSigKey("3f:00000000deadbeef") }); n != 0 {
		t.Errorf("decodeSigKey allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = encodeSigKey(3, 0xdeadbeef) }); n > 1 {
		t.Errorf("encodeSigKey allocates %v times per call, want the string only", n)
	}
}

// TestSigKeyRejectsMalformed keeps the parser as strict as the strconv
// pair it replaced: fixed length, the colon in place, hex digits only —
// upper-case ones included, which ParseUint also took.
func TestSigKeyRejectsMalformed(t *testing.T) {
	if table, sig, err := decodeSigKey("0A:00000000DEADBEEF"); err != nil || table != 10 || sig != 0xdeadbeef {
		t.Fatalf("upper-case hex = %d, %#x, %v; ParseUint accepted it", table, sig, err)
	}
	for _, key := range []string{
		"",
		"00:0000000000000000f",   // too long
		"00:000000000000000",     // too short
		"000:000000000000000",    // colon out of place
		"00;0000000000000000",    // no colon
		"0g:0000000000000000",    // non-hex table digit
		"00:00000000000000x0",    // non-hex signature digit
		"+1:0000000000000000",    // sign
		"00:-000000000000001",    // sign
		"00:0000_00000000000",    // separator
		"00:000000000000000\x00", // control byte
	} {
		if _, _, err := decodeSigKey(key); err == nil {
			t.Errorf("decodeSigKey(%q) accepted a malformed key", key)
		}
	}
}

// resultStream builds the stage-2 output a correct run produces for
// part: one result record per bucket, labelling its points 0, 1, 0, … of
// K = 2.
func resultStream(part *lsh.Partition) []mapreduce.Pair {
	var out []mapreduce.Pair
	for _, b := range part.Buckets {
		labels := make([]int, len(b.Indices))
		for pi := range labels {
			labels[pi] = pi % 2
		}
		sol := BucketSolution{Labels: labels, K: 2, Solver: SolverTrivial, NNZ: 4}
		out = append(out, mapreduce.Pair{Key: fmt.Sprintf("%016x", b.Signature), Value: encodeBucketResult(sol)})
	}
	return out
}

// TestSolutionsFromLabelPairsValidates feeds the stage-2 decoder streams
// with a result lost, repeated, pointing nowhere or misshapen: each must
// be an error, where the map-based decoder kept label 0 or the last
// write. A worker built for the per-point label records is refused, not
// misread.
func TestSolutionsFromLabelPairsValidates(t *testing.T) {
	part := &lsh.Partition{Buckets: []lsh.Bucket{
		{Signature: 0xa, Indices: []int{0, 2, 4}},
		{Signature: 0xb, Indices: []int{1, 5}},
	}}
	good := resultStream(part)
	sols, err := solutionsFromLabelPairs(part, good)
	if err != nil {
		t.Fatalf("complete stream rejected: %v", err)
	}
	if fmt.Sprint(sols[0].Labels, sols[1].Labels) != "[0 1 0] [0 1]" || sols[0].K != 2 || sols[0].NNZ != 4 || sols[1].Solver != SolverTrivial {
		t.Fatalf("decoded %+v", sols)
	}
	without := func(i int) []mapreduce.Pair {
		return append(append([]mapreduce.Pair(nil), good[:i]...), good[i+1:]...)
	}
	with := func(p mapreduce.Pair) []mapreduce.Pair {
		return append(append([]mapreduce.Pair(nil), good...), p)
	}
	// firstAs replaces the first bucket's result record.
	firstAs := func(v []byte) []mapreduce.Pair {
		out := append([]mapreduce.Pair(nil), good...)
		out[0].Value = v
		return out
	}
	result := func(k int, labels ...int) []byte {
		return encodeBucketResult(BucketSolution{Labels: labels, K: k, Solver: SolverTrivial})
	}
	// The earlier layout's label record for point 'R' (82): its leading
	// bytes are this layout's kind and version.
	parentLabel := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 'R'), 0), 2)
	for name, c := range map[string]struct {
		pairs []mapreduce.Pair
		want  string
	}{
		"missing result":       {without(0), "bucket a: missing result"},
		"missing last result":  {without(1), "bucket b: missing result"},
		"duplicate result":     {with(good[0]), "duplicate result for bucket a"},
		"unknown bucket":       {with(mapreduce.Pair{Key: "000000000000000c", Value: good[1].Value}), "unknown bucket c"},
		"short label list":     {firstAs(result(2, 0, 1)), "bucket a: 2 labels for 3 points"},
		"long label list":      {firstAs(result(2, 0, 1, 0, 1)), "bucket a: 4 labels for 3 points"},
		"label ≥ K":            {firstAs(result(2, 0, 2, 1)), "label 2 outside the bucket's 2 clusters"},
		"trailing bytes":       {firstAs(append(result(2, 0, 1, 0), 0)), "1 trailing bytes"},
		"parent label record":  {firstAs(parentLabel), "bucket a: truncated result record"},
		"parent stats record":  {firstAs(append([]byte{'S', 0, 4}, make([]byte, 10)...)), "bucket a: not a result record"},
		"empty stream":         {nil, "bucket a: missing result"},
		"count past the bytes": {firstAs(append(result(2)[:len(result(2))-1], 0x7f)), "label count 127 exceeds payload 0"},
	} {
		_, err := solutionsFromLabelPairs(part, c.pairs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, c.want)
		}
	}
}

// TestSignaturesFromPairsValidates holds the stage-1 decoder to the
// stage-2 decoder's standard: a stream with one point dropped from its
// index list or one point repeated is an error naming the table and the
// point, where the unchecked decoder left signature 0 or kept the last
// write; so is an index past N or an index list with bytes left over.
// One signature may arrive in several records — one per map task.
func TestSignaturesFromPairsValidates(t *testing.T) {
	const n, tables = 5, 2
	rec := func(table int, sig uint64, ids ...int) mapreduce.Pair {
		return mapreduce.Pair{Key: encodeSigKey(table, sig), Value: encodeIndices(ids)}
	}
	good := []mapreduce.Pair{
		rec(0, 0, 0, 2, 4), rec(0, 1, 1, 3),
		rec(1, 10, 0, 1), rec(1, 11, 2), rec(1, 11, 3, 4),
	}
	sigs, err := signaturesFromPairs(good, n, tables)
	if err != nil {
		t.Fatalf("complete stream rejected: %v", err)
	}
	if fmt.Sprint(sigs.Tables) != "[[0 1 0 1 0] [10 10 11 11 11]]" {
		t.Fatalf("decoded %v", sigs.Tables)
	}
	dropped := append(append([]mapreduce.Pair(nil), good[:3]...), good[4]) // table 1, point 2
	repeated := append(append([]mapreduce.Pair(nil), good...), rec(0, 99, 3))
	for name, c := range map[string]struct {
		pairs []mapreduce.Pair
		want  string
	}{
		"dropped":        {dropped, "missing signature for table 1, point 2"},
		"repeated":       {repeated, "duplicate signature for table 0, point 3"},
		"index ≥ n":      {append(append([]mapreduce.Pair(nil), good...), rec(0, 7, n)), "index 5 out of range"},
		"trailing bytes": {[]mapreduce.Pair{{Key: good[0].Key, Value: append(encodeIndices([]int{0}), 0)}}, "1 trailing bytes after index list"},
		"empty stream":   {nil, "missing signature for table 0, point 0"},
	} {
		_, err := signaturesFromPairs(c.pairs, n, tables)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, c.want)
		}
	}
}
