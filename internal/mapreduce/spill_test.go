package mapreduce

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// collectRuns drains a mergeRuns merge into a slice.
func collectRuns(t *testing.T, runs []run) []Pair {
	t.Helper()
	var out []Pair
	err := mergeRuns(runs, func(stretch []Pair) error {
		out = append(out, stretch...)
		return nil
	})
	if err != nil {
		t.Fatalf("mergeRuns: %v", err)
	}
	return out
}

// collectLoad drains partition 0 of a spillSet through load.
func collectLoad(t *testing.T, ss *spillSet) []Pair {
	t.Helper()
	out, err := collectPairs(ss.load(0), ss.partitionRecords(0))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return out
}

// TestMergeRunReadersEdgeCases covers the streaming merge on zero runs,
// a single run, all-empty runs, and duplicate keys across runs.
func TestMergeRunReadersEdgeCases(t *testing.T) {
	if got := collectRuns(t, nil); len(got) != 0 {
		t.Fatalf("zero runs merged to %v", got)
	}
	if got := collectRuns(t, []run{}); len(got) != 0 {
		t.Fatalf("empty run set merged to %v", got)
	}
	single := []Pair{{"a", []byte("1")}, {"b", []byte("2")}}
	if got := collectRuns(t, []run{{buf: single}}); !pairsEqual(got, single) {
		t.Fatalf("single run merged to %v", got)
	}
	empties := []run{{}, {buf: []Pair{}}, {}}
	if got := collectRuns(t, empties); len(got) != 0 {
		t.Fatalf("all-empty runs merged to %v", got)
	}
	// Duplicate keys across runs: ties must pop in run order.
	a := []Pair{{"k", []byte("a0")}, {"k", []byte("a1")}}
	b := []Pair{{"k", []byte("b0")}}
	c := []Pair{{"j", []byte("c0")}, {"k", []byte("c1")}}
	got := collectRuns(t, []run{{buf: a}, {buf: b}, {buf: c}})
	want := []Pair{{"j", []byte("c0")}, {"k", []byte("a0")}, {"k", []byte("a1")}, {"k", []byte("b0")}, {"k", []byte("c1")}}
	if !pairsEqual(got, want) {
		t.Fatalf("duplicate-key merge\n got %v\nwant %v", got, want)
	}
}

// TestMergeRunsEdgeCasesSlices mirrors the edge cases on the exported
// slice-to-slice wrapper, so both entry points honor the same contract.
func TestMergeRunsEdgeCasesSlices(t *testing.T) {
	if got := MergeRuns(nil); got != nil {
		t.Fatalf("zero runs merged to %v", got)
	}
	if got := MergeRuns([][]Pair{nil, {}, nil}); got != nil {
		t.Fatalf("all-empty runs merged to %v", got)
	}
	single := []Pair{{"a", []byte("1")}, {"b", []byte("2")}}
	if got := MergeRuns([][]Pair{single}); !pairsEqual(got, single) {
		t.Fatalf("single run merged to %v", got)
	}
	a := []Pair{{"k", []byte("a0")}, {"k", []byte("a1")}}
	b := []Pair{{"k", []byte("b0")}}
	c := []Pair{{"j", []byte("c0")}, {"k", []byte("c1")}}
	got := MergeRuns([][]Pair{a, b, c})
	want := []Pair{{"j", []byte("c0")}, {"k", []byte("a0")}, {"k", []byte("a1")}, {"k", []byte("b0")}, {"k", []byte("c1")}}
	if !pairsEqual(got, want) {
		t.Fatalf("duplicate-key merge\n got %v\nwant %v", got, want)
	}
}

// spillRuns writes each run as a segment of one spillSet partition and
// returns the set, exercising the real on-disk framing.
func spillRuns(t *testing.T, runs [][]Pair) *spillSet {
	t.Helper()
	ss := newSpillSet(1, 1, false) // 1-byte budget: every add flushes
	for seq, run := range runs {
		parts := [][]Pair{run}
		if err := ss.add(seq, parts); err != nil {
			t.Fatalf("add run %d: %v", seq, err)
		}
	}
	return ss
}

// TestSpillFlushLeavesNothingBuffered pins what lets load run straight
// after the map phase, with no flush step between: the moment add
// returns — raw or deflated — no partition's file writer holds a byte
// the merge's ReadAt cannot see.
func TestSpillFlushLeavesNothingBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, compress := range []bool{false, true} {
		ss := newSpillSet(3, 1, compress) // 1-byte budget: every add flushes
		for seq := 0; seq < 6; seq++ {
			parts := make([][]Pair, 3)
			for p := range parts {
				parts[p] = randomPairs(rng, rng.Intn(20), 5)
				sortPairs(parts[p])
			}
			if err := ss.add(seq, parts); err != nil {
				t.Fatalf("compress=%v: add %d: %v", compress, seq, err)
			}
			for p := range ss.parts {
				if w := ss.parts[p].w; w != nil && w.Buffered() != 0 {
					t.Fatalf("compress=%v: after add %d partition %d holds %d unflushed bytes", compress, seq, p, w.Buffered())
				}
			}
		}
		if spilled, _, _ := ss.stats(); spilled == 0 {
			t.Fatalf("compress=%v: nothing spilled", compress)
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestPropFileBackedMergeEqualsInMemory is the file-backed vs in-memory
// equivalence property: the same sorted runs, merged once from memory
// and once from spill files, produce byte-identical output — and both
// equal MergeRuns on the raw slices.
func TestPropFileBackedMergeEqualsInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(runCount, runLen, keySpace uint8) bool {
		k := int(runCount)%6 + 1
		runs := make([][]Pair, k)
		for r := range runs {
			runs[r] = randomPairs(rng, int(runLen)%40, int(keySpace)%8+1)
			sortPairs(runs[r])
		}
		want := MergeRuns(runs)

		mem := make([]run, k)
		for r := range runs {
			mem[r] = run{buf: runs[r]}
		}
		gotMem := collectRuns(t, mem)

		ss := spillRuns(t, runs)
		defer func() {
			if err := ss.Close(); err != nil {
				t.Fatalf("close spill set: %v", err)
			}
		}()
		gotFile := collectLoad(t, ss)
		return pairsEqual(want, gotMem) && pairsEqual(want, gotFile)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSpillSetOutOfOrderSeqs verifies the merge order follows task Seq,
// not arrival order — the TCP master's results land from concurrent
// reader goroutines in arbitrary order.
func TestSpillSetOutOfOrderSeqs(t *testing.T) {
	ss := newSpillSet(1, 1, false)
	defer func() {
		if err := ss.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	// Same key everywhere: output order is exactly tie-break order.
	if err := ss.add(2, [][]Pair{{{"k", []byte("seq2")}}}); err != nil {
		t.Fatal(err)
	}
	if err := ss.add(0, [][]Pair{{{"k", []byte("seq0")}}}); err != nil {
		t.Fatal(err)
	}
	if err := ss.add(1, [][]Pair{{{"k", []byte("seq1")}}}); err != nil {
		t.Fatal(err)
	}
	got := collectLoad(t, ss)
	want := []Pair{{"k", []byte("seq0")}, {"k", []byte("seq1")}, {"k", []byte("seq2")}}
	if !pairsEqual(got, want) {
		t.Fatalf("out-of-order seqs merged as %v", got)
	}
}

// TestSpillSetMixedMemoryAndDisk holds some runs under the budget in
// memory while others spill, and checks the mixed merge still follows
// seq order.
func TestSpillSetMixedMemoryAndDisk(t *testing.T) {
	ss := newSpillSet(1, 1<<20, false) // large budget: nothing flushes on its own
	defer func() {
		if err := ss.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	if err := ss.add(1, [][]Pair{{{"k", []byte("seq1")}}}); err != nil {
		t.Fatal(err)
	}
	ss.mu.Lock()
	if err := ss.flushLocked(); err != nil { // force seq 1 to disk
		ss.mu.Unlock()
		t.Fatal(err)
	}
	ss.mu.Unlock()
	if err := ss.add(0, [][]Pair{{{"k", []byte("seq0")}}}); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := ss.stats(); got == 0 {
		t.Fatal("expected spilled bytes")
	}
	got := collectLoad(t, ss)
	want := []Pair{{"k", []byte("seq0")}, {"k", []byte("seq1")}}
	if !pairsEqual(got, want) {
		t.Fatalf("mixed memory/disk merge %v", got)
	}
}

// TestFileRunRejectsTruncation: a segment cut mid-record must surface
// an error, not a silent short run.
func TestFileRunRejectsTruncation(t *testing.T) {
	ss := spillRuns(t, [][]Pair{{{"key", []byte("value")}}})
	defer func() {
		if err := ss.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	seg := ss.parts[0].segs[0]
	seg.n -= 2
	truncated := newFileRun(ss.parts[0].f, seg)
	if _, err := truncated.next(); err == nil || err == io.EOF {
		t.Fatalf("truncated segment read returned %v", err)
	}
}

// TestFileRunBoundedBySegment is the spill twin of
// TestReadExactlyBoundedByStream: a segment whose first length prefix
// claims 1 GiB over a few hundred real bytes fails as a truncated record
// having allocated next to nothing, raw and deflated.
func TestFileRunBoundedBySegment(t *testing.T) {
	lying := append(binary.AppendUvarint(nil, maxFrameBody), bytes.Repeat([]byte{'x'}, 300)...)
	for _, deflated := range []bool{false, true} {
		var disk bytes.Buffer
		if deflated {
			fw, err := flate.NewWriter(&disk, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fw.Write(lying); err != nil {
				t.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			disk.Write(lying)
		}
		path := filepath.Join(t.TempDir(), "lying.run")
		if err := os.WriteFile(path, disk.Bytes(), 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		size := int64(disk.Len())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = newFileRun(f, segment{n: size, deflated: deflated}).next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("deflated=%v: a 1 GiB key over 300 bytes read as %v, want io.ErrUnexpectedEOF", deflated, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("deflated=%v: a lying 1 GiB prefix over 300 bytes made the reader allocate %d bytes", deflated, grew)
		}
	}
}

// TestPropLoadEqualsStableSortOfRuns is load's whole contract in one
// property: whatever mix of resident, spilled and deflated runs a
// partition holds, in whatever order their seqs arrived, load delivers
// exactly the stable sort of the runs concatenated in seq order — on
// every call. Run lengths sit on both sides of a window's record count,
// some records are larger than its byte cap, and some runs are empty.
func TestPropLoadEqualsStableSortOfRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{0, 1, 7, windowRecords - 1, windowRecords, windowRecords + 1, 2*windowRecords + 3}
	for _, mode := range []string{"resident", "spilled", "mixed", "deflated", "mixed deflated"} {
		for trial := 0; trial < 12; trial++ {
			k := rng.Intn(7)
			runs := make([][]Pair, k)
			for seq := range runs {
				runs[seq] = make([]Pair, lengths[rng.Intn(len(lengths))])
				big := rng.Intn(4) == 0 // this run's records exceed the byte cap: one per window
				if big {
					runs[seq] = runs[seq][:min(len(runs[seq]), 3)]
				}
				for i := range runs[seq] {
					value := []byte(fmt.Sprintf("%d/%d", seq, i))
					if big {
						value = append(value, make([]byte, windowBytes)...)
					}
					runs[seq][i] = Pair{Key: fmt.Sprintf("k%02d", rng.Intn(5)), Value: value}
				}
				sortPairs(runs[seq])
			}
			var want []Pair
			for _, run := range runs {
				want = append(want, run...)
			}
			refStableSort(want)

			mixed := strings.HasPrefix(mode, "mixed")
			var budget int64 // resident: no budget, nothing spills
			switch {
			case mixed:
				budget = 1 << 40 // nothing flushes on its own
			case mode != "resident":
				budget = 1 // every add flushes
			}
			ss := newSpillSet(1, budget, strings.HasSuffix(mode, "deflated"))
			for _, seq := range rng.Perm(k) { // results land in any order
				if err := ss.add(seq, [][]Pair{runs[seq]}); err != nil {
					t.Fatalf("%s: add run %d: %v", mode, seq, err)
				}
				if mixed && rng.Intn(2) == 0 {
					ss.mu.Lock()
					err := ss.flushLocked()
					ss.mu.Unlock()
					if err != nil {
						t.Fatalf("%s: flush: %v", mode, err)
					}
				}
			}
			if got := ss.partitionRecords(0); got != len(want) {
				t.Fatalf("%s trial %d: partition counts %d records, want %d", mode, trial, got, len(want))
			}
			for call := 0; call < 2; call++ {
				if got := collectLoad(t, ss); !pairsEqual(got, want) {
					t.Fatalf("%s trial %d, call %d: load of %d runs diverged from concat + stable sort (%d vs %d records)",
						mode, trial, call, k, len(got), len(want))
				}
			}
			if spilled, _, _ := ss.stats(); !mixed && (budget > 0 && len(want) > 0) != (spilled > 0) {
				t.Fatalf("%s trial %d: %d bytes spilled", mode, trial, spilled)
			}
			if err := ss.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
	}
}

// spillExecutors are the executors the end-to-end spill identity tests
// cover. Each runs a copy of job with the given data-plane settings: the
// Local pool, and a fresh TCP master with two in-process socket workers
// (the job must be Registered), which must also shut down cleanly.
var spillExecutors = []struct {
	name string
	run  func(t *testing.T, job *Job, spill int64, compress bool, input []Pair) ([]Pair, *Counters)
}{
	{"local", func(t *testing.T, job *Job, spill int64, compress bool, input []Pair) ([]Pair, *Counters) {
		t.Helper()
		j := *job
		j.SpillBytes, j.Compress = spill, compress
		out, ctr, err := (&Local{Workers: 4}).Run(&j, input)
		if err != nil {
			t.Fatalf("budget %d: %v", spill, err)
		}
		return out, ctr
	}},
	{"tcp", func(t *testing.T, job *Job, spill int64, compress bool, input []Pair) ([]Pair, *Counters) {
		t.Helper()
		m, err := NewMaster("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if cerr := m.Close(); cerr != nil {
				t.Fatalf("close master: %v", cerr)
			}
		}()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < 2; i++ {
			go func() { _ = RunWorkerContext(ctx, m.Addr()) }()
		}
		j := *job
		j.SpillBytes, j.Compress = spill, compress
		out, ctr, err := m.Run(&j, input)
		if err != nil {
			t.Fatalf("budget %d: %v", spill, err)
		}
		return out, ctr
	}},
}

// TestSpillOutputIdentical runs one job on each executor at several
// spill budgets (including budgets forcing many flushes; on TCP the
// master spills map results as they arrive and re-merges reduce
// partitions lazily) and requires output byte-identical to the in-memory
// run, populated spill counters, and shuffle counters that do not move.
func TestSpillOutputIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	input := make([]Pair, 400)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: []byte{byte(rng.Intn(8))}}
	}
	job := &Job{
		Name:        "spill-wc",
		SplitSize:   16,
		NumReducers: 3,
		Map: func(key string, value []byte, emit Emit) error {
			emit(fmt.Sprintf("g%d", value[0]), []byte(key))
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
	Register(job)
	for _, e := range spillExecutors {
		t.Run(e.name, func(t *testing.T) {
			base, baseCtr := e.run(t, job, 0, false, input)
			if baseCtr.SpillBytes != 0 {
				t.Fatalf("in-memory run reported %d spill bytes", baseCtr.SpillBytes)
			}
			for _, budget := range []int64{1, 64, 128, 1 << 20} {
				out, ctr := e.run(t, job, budget, false, input)
				if !pairsEqual(out, base) {
					t.Fatalf("budget %d: output diverged from in-memory run", budget)
				}
				if budget <= 128 && ctr.SpillBytes == 0 {
					t.Fatalf("budget %d: expected spilling", budget)
				}
				if ctr.MapOutputs != baseCtr.MapOutputs || ctr.ShuffleBytes != baseCtr.ShuffleBytes {
					t.Fatalf("budget %d: counters diverged: %+v vs %+v", budget, ctr, baseCtr)
				}
			}
		})
	}
}

// TestLocalSpilledReduceStreams pins why the pool runner consumes a
// spilled partition as a stream: Local with SpillBytes never holds a
// reduce partition whole. One partition is fed 16 MiB of values in four
// runs whose keys ascend run by run, so the reducer works through the
// first run's groups before the merge has read past the head of the last
// — and the live heap, sampled inside the reducer, must stay under a
// 4 MiB cap above the baseline (the merge holds one 64 KiB record and one
// read buffer per run). Materializing the partition, or keeping every
// map result until the job ends, holds four times the cap.
func TestLocalSpilledReduceStreams(t *testing.T) {
	const (
		runs, perRun = 4, 64
		valueBytes   = 64 << 10
		heapCap      = 4 << 20
	)
	input := make([]Pair, runs*perRun)
	for i := range input {
		input[i] = Pair{Key: fmt.Sprintf("%04d", i)}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var groups int
	var peak uint64
	job := &Job{
		Name:       "spill-streams",
		SplitSize:  perRun, // one map task, and so one spilled run, per perRun keys
		SpillBytes: 1,      // every map result is flushed as it lands
		Map: func(key string, value []byte, emit Emit) error {
			emit(key, bytes.Repeat([]byte{key[3]}, valueBytes))
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			if groups%16 == 0 {
				peak = max(peak, liveHeap())
			}
			groups++
			emit(key, []byte(strconv.Itoa(len(values[0]))))
			return nil
		},
	}
	base := liveHeap()
	out, ctr, err := (&Local{Workers: 1}).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(input) || groups != len(input) {
		t.Fatalf("%d outputs from %d groups, want %d", len(out), groups, len(input))
	}
	if ctr.SpillBytes < runs*perRun*valueBytes {
		t.Fatalf("spilled %d bytes, want the whole %d-byte partition on disk", ctr.SpillBytes, runs*perRun*valueBytes)
	}
	if peak > base+heapCap {
		t.Fatalf("live heap inside the reducer peaked %d bytes above the baseline; cap %d, partition %d",
			peak-base, heapCap, runs*perRun*valueBytes)
	}
}

// BenchmarkSpillMergeShuffle times the Local executor's fused
// spill-merge-reduce against the in-memory shuffle on the same job.
func BenchmarkSpillMergeShuffle(b *testing.B) {
	input := make([]Pair, 4096)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: make([]byte, 64)}
	}
	job := func(spill int64) *Job {
		return &Job{
			Name:        "bench-spill",
			SpillBytes:  spill,
			SplitSize:   256,
			NumReducers: 4,
			Map: func(key string, value []byte, emit Emit) error {
				emit(key[len(key)-1:], value)
				return nil
			},
			Reduce: func(key string, values [][]byte, emit Emit) error {
				emit(key, []byte(strconv.Itoa(len(values))))
				return nil
			},
		}
	}
	exec := &Local{}
	for _, budget := range []int64{0, 64 << 10} {
		b.Run(fmt.Sprintf("spill=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.Run(job(budget), input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
