package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/mrtest"
)

// capturingExec records every job a runner submits, with its input, and
// runs it on the Local executor so the runner can carry on to stage 2.
type capturingExec struct {
	jobs   []*mapreduce.Job
	inputs [][]mapreduce.Pair
}

func (c *capturingExec) Run(job *mapreduce.Job, input []mapreduce.Pair) ([]mapreduce.Pair, *mapreduce.Counters, error) {
	c.jobs = append(c.jobs, job)
	c.inputs = append(c.inputs, input)
	return (&mapreduce.Local{}).Run(job, input)
}

// zeroSolveNanos canonicalizes a stage-2 output for comparison: the
// per-bucket stats records carry the solve's wall time, the one field
// of the stream that two executions of the same reducer do not share.
func zeroSolveNanos(packed bool) func([]mapreduce.Pair) {
	return func(pairs []mapreduce.Pair) {
		for i, p := range pairs {
			if !isStatsRecord(p.Value, packed) {
				continue
			}
			var sol BucketSolution
			if packed {
				if err := decodePackedBucketStats(p.Value, &sol); err != nil {
					continue // left as is; the comparison will show it
				}
			} else {
				decodeBucketStats(p.Value, &sol)
			}
			sol.SolveNanos = 0
			pairs[i].Value = encodeBucketStatsConf(sol, packed)
		}
	}
}

// TestCoreJobsElisionMatchesExecution holds the six DASC jobs — closure,
// shipped and sharded runner × stage 1 and stage 2 — to their identity
// declarations: each job a real run submits is captured with its real
// input and re-run with the declared phase elided and executed, on Local
// and over TCP, at every spill budget, compressed and not.
func TestCoreJobsElisionMatchesExecution(t *testing.T) {
	l := mixture(t, 400, 12, 6, 0.05, 60)
	runners := []struct {
		name string
		cfg  Config
		run  func(cfg Config, exec mapreduce.Executor) error
	}{
		{"closure", Config{K: 6, Seed: 61, M: 7, P: -1, Tables: 2}, func(cfg Config, exec mapreduce.Executor) error {
			_, err := ClusterMapReduce(l.Points, cfg, exec, "elision-closure")
			return err
		}},
		{"shipped", Config{K: 6, Seed: 61, M: 7, P: -1, EmbedDim: 16, EmbedCutoff: 8}, func(cfg Config, exec mapreduce.Executor) error {
			_, err := ClusterMapReduceShipped(l.Points, cfg, exec)
			return err
		}},
		{"sharded", Config{K: 6, Seed: 61, M: 7, P: -1, FitSample: 400, Compression: true}, func(cfg Config, exec mapreduce.Executor) error {
			_, err := ClusterMapReduceSharded(writeShardDir(t, l.Points, 64), cfg, exec)
			return err
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			var captured capturingExec
			if err := r.run(r.cfg, &captured); err != nil {
				t.Fatal(err)
			}
			if len(captured.jobs) != 2 {
				t.Fatalf("runner submitted %d jobs, want the two DASC stages", len(captured.jobs))
			}
			if buckets := len(captured.inputs[1]); buckets < 4 {
				t.Fatalf("stage 2 has only %d buckets; the check wants them spread over the reduce partitions", buckets)
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
			if err := mrtest.CheckElision(stage2, captured.inputs[1], zeroSolveNanos(r.cfg.Compression)); err != nil {
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

// labelStream builds the stage-2 output a correct run produces for part:
// one label record per point and one stats record per bucket.
func labelStream(part *lsh.Partition, packed bool) []mapreduce.Pair {
	var out []mapreduce.Pair
	for _, b := range part.Buckets {
		key := fmt.Sprintf("%016x", b.Signature)
		for pi, idx := range b.Indices {
			out = append(out, mapreduce.Pair{Key: key, Value: encodeLabel(idx, pi%2, 2)})
		}
		out = append(out, mapreduce.Pair{Key: key, Value: encodeBucketStatsConf(BucketSolution{Solver: SolverTrivial, NNZ: 4}, packed)})
	}
	return out
}

// TestSolutionsFromLabelPairsValidates feeds the stage-2 decoder streams
// with a record lost, repeated or pointing nowhere: each must be an
// error, where the map-based decoder kept label 0 or the last write.
func TestSolutionsFromLabelPairsValidates(t *testing.T) {
	part := &lsh.Partition{Buckets: []lsh.Bucket{
		{Signature: 0xa, Indices: []int{0, 2, 4}},
		{Signature: 0xb, Indices: []int{1, 5}},
	}}
	const n = 7 // point 3 and 6 are in no bucket
	for _, packed := range []bool{false, true} {
		good := labelStream(part, packed)
		sols, err := solutionsFromLabelPairs(part, good, n, packed)
		if err != nil {
			t.Fatalf("packed=%v: complete stream rejected: %v", packed, err)
		}
		if fmt.Sprint(sols[0].Labels, sols[1].Labels) != "[0 1 0] [0 1]" || sols[0].K != 2 || sols[0].NNZ != 4 || sols[1].Solver != SolverTrivial {
			t.Fatalf("packed=%v: decoded %+v", packed, sols)
		}
		without := func(i int) []mapreduce.Pair {
			return append(append([]mapreduce.Pair(nil), good[:i]...), good[i+1:]...)
		}
		with := func(p mapreduce.Pair) []mapreduce.Pair {
			return append(append([]mapreduce.Pair(nil), good...), p)
		}
		for name, c := range map[string]struct {
			pairs []mapreduce.Pair
			want  string
		}{
			"missing label":       {without(1), "2 of 3 points labelled"},
			"missing last label":  {without(5), "1 of 2 points labelled"},
			"missing stats":       {without(3), "missing stats"},
			"duplicate label":     {with(good[0]), "duplicate label for point 0"},
			"duplicate stats":     {with(good[3]), "duplicate stats"},
			"unbucketed point":    {with(mapreduce.Pair{Key: good[0].Key, Value: encodeLabel(3, 0, 2)}), "out-of-range point 3"},
			"point past the end":  {with(mapreduce.Pair{Key: good[0].Key, Value: encodeLabel(n, 0, 2)}), "out-of-range point 7"},
			"stats, wrong bucket": {with(mapreduce.Pair{Key: "000000000000000c", Value: good[3].Value}), "unknown bucket"},
			"empty stream":        {nil, "0 of 3 points labelled"},
		} {
			_, err := solutionsFromLabelPairs(part, c.pairs, n, packed)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("packed=%v, %s: err = %v, want it to mention %q", packed, name, err, c.want)
			}
		}
	}
}
