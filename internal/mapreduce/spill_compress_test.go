package mapreduce

import (
	"bytes"
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
	for _, seg := range ss.parts[0].segs {
		if !seg.deflated {
			t.Fatal("compressed spill set wrote an unpacked segment")
		}
	}
	got := collectLoad(t, ss)
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
	written, raw, _ := ss.stats()
	if written >= raw {
		t.Fatalf("packed run wrote %d bytes for %d raw — no shrink", written, raw)
	}
	if raw < 2*written {
		t.Logf("compression ratio %.2f (written %d / raw %d)", float64(written)/float64(raw), written, raw)
	}
	got := collectLoad(t, ss)
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
	pw, praw, _ := plain.stats()
	if pw != praw {
		t.Fatalf("plain spill stats disagree: %d written vs %d raw", pw, praw)
	}
	if praw != raw {
		t.Fatalf("raw framed size depends on compression: %d vs %d", praw, raw)
	}
}

// TestCompressedSpillOutputIdentical is the end-to-end identity pin on
// each executor (on TCP: deflated wire frames into deflated spill runs):
// Compress with any spill budget must produce bit-identical output to the
// in-memory, uncompressed run.
func TestCompressedSpillOutputIdentical(t *testing.T) {
	input := make([]Pair, 400)
	for i := range input {
		input[i] = Pair{Key: strconv.Itoa(i), Value: bytes.Repeat([]byte{byte(i % 8)}, 32)}
	}
	job := &Job{
		Name:        "compressed-spill-wc",
		SplitSize:   16,
		NumReducers: 3,
		Map: func(key string, value []byte, emit Emit) error {
			emit(fmt.Sprintf("g%d", value[0]), bytes.Repeat([]byte(key), 8))
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
	for _, e := range spillExecutors {
		t.Run(e.name, func(t *testing.T) {
			base, _ := e.run(t, job, 0, false, input)
			for _, budget := range []int64{1, 64, 1 << 20} {
				out, ctr := e.run(t, job, budget, true, input)
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
		})
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
