package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// TestPackedSpillMergeEqualsInMemory is the packed-run correctness
// property: runs written through per-segment flate must merge to
// exactly the same sequence as the in-memory slices, at a 1-byte budget
// that forces every add into its own deflated segment.
func TestPackedSpillMergeEqualsInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	runs := make([][]Pair, 5)
	for r := range runs {
		runs[r] = randomPairs(rng, 30, 4)
		sortPairs(runs[r])
	}
	want := MergeRuns(runs)

	ss := newSpillSet(1, 1, true)
	defer func() {
		if err := ss.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	for seq, run := range runs {
		if err := ss.add(seq, [][]Pair{run}); err != nil {
			t.Fatalf("add run %d: %v", seq, err)
		}
	}
	if err := ss.seal(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range ss.parts[0].segs {
		if !seg.deflated {
			t.Fatal("compressed spill set wrote an unpacked segment")
		}
	}
	got, err := ss.materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, want) {
		t.Fatalf("packed merge diverged\n got %v\nwant %v", got, want)
	}
	written, raw, _ := ss.stats()
	if written == 0 || raw == 0 {
		t.Fatalf("stats = (%d written, %d raw), want both nonzero", written, raw)
	}
}

// TestPackedSpillShrinksLargeRuns checks the accounting direction that
// matters operationally: once runs are big and repetitive, the deflated
// segments must be strictly smaller than their raw framed size.
func TestPackedSpillShrinksLargeRuns(t *testing.T) {
	run := make([]Pair, 600)
	for i := range run {
		run[i] = Pair{Key: fmt.Sprintf("table-0:sig-%04d", i/4),
			Value: bytes.Repeat([]byte{byte(i % 3)}, 48)}
	}
	sortPairs(run)

	ss := newSpillSet(1, 1, true)
	defer func() {
		if err := ss.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	if err := ss.add(0, [][]Pair{run}); err != nil {
		t.Fatal(err)
	}
	if err := ss.seal(); err != nil {
		t.Fatal(err)
	}
	written, raw, _ := ss.stats()
	if written >= raw {
		t.Fatalf("packed run wrote %d bytes for %d raw — no shrink", written, raw)
	}
	if raw < 2*written {
		t.Logf("compression ratio %.2f (written %d / raw %d)", float64(written)/float64(raw), written, raw)
	}
	got, err := ss.materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, run) {
		t.Fatal("large packed run did not round-trip")
	}

	// The same data through an uncompressed set must byte-count raw.
	plain := newSpillSet(1, 1, false)
	defer func() {
		if err := plain.Close(); err != nil {
			t.Fatalf("close plain: %v", err)
		}
	}()
	if err := plain.add(0, [][]Pair{run}); err != nil {
		t.Fatal(err)
	}
	if err := plain.seal(); err != nil {
		t.Fatal(err)
	}
	pw, praw, _ := plain.stats()
	if pw != praw {
		t.Fatalf("plain spill stats disagree: %d written vs %d raw", pw, praw)
	}
	if praw != raw {
		t.Fatalf("raw framed size depends on compression: %d vs %d", praw, raw)
	}
}

// TestLocalPackedSpillOutputIdentical is the end-to-end identity pin
// for the Local executor: Compress with any spill budget must produce
// bit-identical output to the in-memory, uncompressed run.
func TestLocalPackedSpillOutputIdentical(t *testing.T) {
	input := make([]Pair, 400)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: bytes.Repeat([]byte{byte(i % 8)}, 32)}
	}
	job := func(spill int64, compress bool) *Job {
		return &Job{
			Name:        "packed-spill-wc",
			SpillBytes:  spill,
			Compress:    compress,
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
	}
	exec := &Local{Workers: 4}
	base, _, err := exec.Run(job(0, false), input)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 64, 1 << 20} {
		out, ctr, err := exec.Run(job(budget, true), input)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !pairsEqual(out, base) {
			t.Fatalf("budget %d: compressed spill output diverged", budget)
		}
		if budget <= 64 && ctr.SpillBytes == 0 {
			t.Fatalf("budget %d: expected spilling", budget)
		}
		// CompressedBytes is raw minus written: tiny per-flush runs can
		// legitimately expand under flate (negative savings), so only the
		// accounting identity is asserted here, not the sign.
		if budget <= 64 && ctr.CompressedBytes == 0 {
			t.Fatalf("budget %d: spill compression accounting missing", budget)
		}
	}
}

// BenchmarkCompressedSpillShuffle times the Local executor's spill
// shuffle with and without per-segment flate, on compressible map
// output (the CI compressed-shuffle smoke entry).
func BenchmarkCompressedSpillShuffle(b *testing.B) {
	input := make([]Pair, 2048)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: bytes.Repeat([]byte{byte(i % 7)}, 64)}
	}
	job := func(compress bool) *Job {
		return &Job{
			Name:        "bench-packed-spill",
			SpillBytes:  64 << 10,
			Compress:    compress,
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
	for _, compress := range []bool{false, true} {
		b.Run(fmt.Sprintf("compress=%v", compress), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.Run(job(compress), input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTCPPackedSpillOutputIdentical runs the compressed out-of-core
// shuffle over real TCP — deflated wire frames into deflated spill
// runs — and requires output identical to the plain in-memory master.
func TestTCPPackedSpillOutputIdentical(t *testing.T) {
	job := &Job{
		Name:        "tcp-packed-spill-wc",
		SplitSize:   8,
		NumReducers: 3,
		Map: func(key string, value []byte, emit Emit) error {
			emit(fmt.Sprintf("g%d", value[0]%5), bytes.Repeat([]byte(key), 8))
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			var n int
			for _, v := range values {
				n += len(v)
			}
			emit(key, []byte(strconv.Itoa(n)))
			return nil
		},
	}
	Register(job)
	input := make([]Pair, 200)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: []byte{byte(i * 7)}}
	}
	run := func(spill int64, compress bool) []Pair {
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
		j.SpillBytes = spill
		j.Compress = compress
		out, ctr, err := m.Run(&j, input)
		if err != nil {
			t.Fatal(err)
		}
		if spill > 0 && spill <= 64 && ctr.SpillBytes == 0 {
			t.Fatalf("spill budget %d produced no spill bytes", spill)
		}
		return out
	}
	base := run(0, false)
	for _, budget := range []int64{1, 64, 1 << 20} {
		if got := run(budget, true); !pairsEqual(got, base) {
			t.Fatalf("budget %d: compressed TCP spill output diverged", budget)
		}
	}
}
