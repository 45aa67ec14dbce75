package shard

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestReadMeteringPinned pins the read meters and the returned bits of
// every read path on one fixed call sequence. Bench reports
// shard.read_ops and shard.coalesced_share from these counters, so a
// change to how the reader issues its ReadAt calls must leave every
// cumulative BytesRead / ReadOps / CoalescedReads value where it is.
func TestReadMeteringPinned(t *testing.T) {
	const rows, cols = 1000, 5
	dir := t.TempDir()
	writeMatrix(t, dir, rows, cols, 128)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()

	h := fnv.New64a()
	var word [8]byte
	hashRow := func(row []float64) {
		for _, v := range row {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			_, _ = h.Write(word[:])
		}
	}
	stream := func(start, count int) error {
		return r.Stream(start, count, func(i int, row []float64) error {
			binary.LittleEndian.PutUint64(word[:], uint64(i))
			_, _ = h.Write(word[:])
			hashRow(row)
			return nil
		})
	}

	// The gather's requests: seeded rows (duplicates among them), two
	// contiguous runs across the 128- and 256-row shard boundaries, and
	// explicit duplicates, two of them adjacent across row 384.
	rng := rand.New(rand.NewSource(7))
	gather := make([]int, 0, 207)
	for range 170 {
		gather = append(gather, rng.Intn(rows))
	}
	for i := 120; i < 136; i++ {
		gather = append(gather, i)
	}
	for i := 250; i < 261; i++ {
		gather = append(gather, i)
	}
	gather = append(gather, 500, 500, 500, 501, 999, 999, 0, 0, 383, 384)
	if len(gather) != 207 {
		t.Fatalf("gather has %d requests, want 207", len(gather))
	}

	steps := []struct {
		name             string
		call             func() error
		bytes, ops, coal int64
	}{
		{"Stream(0,1000)", func() error { return stream(0, rows) }, 40000, 8, 8},
		{"Stream(37,500)", func() error { return stream(37, 500) }, 60000, 13, 13},
		{"ReadRange(100,300)", func() error {
			dst := make([]float64, 300*cols)
			if err := r.ReadRange(100, 300, dst); err != nil {
				return err
			}
			hashRow(dst)
			return nil
		}, 72000, 17, 17},
		{"ReadRow(999)", func() error {
			row, err := r.ReadRow(999, nil)
			if err != nil {
				return err
			}
			hashRow(row)
			return nil
		}, 72040, 18, 17},
		{"ReadRowsInto(207)", func() error {
			out := make([]float64, len(gather)*cols)
			if err := r.ReadRowsInto(gather, func(pos int) []float64 { return out[pos*cols : (pos+1)*cols] }); err != nil {
				return err
			}
			hashRow(out)
			return nil
		}, 79400, 155, 53},
	}
	for _, s := range steps {
		if err := s.call(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if b, o, c := r.BytesRead(), r.ReadOps(), r.CoalescedReads(); b != s.bytes || o != s.ops || c != s.coal {
			t.Errorf("after %s: BytesRead/ReadOps/CoalescedReads = %d/%d/%d, want %d/%d/%d",
				s.name, b, o, c, s.bytes, s.ops, s.coal)
		}
	}
	if got, want := h.Sum64(), uint64(0x48292acad36c558a); got != want {
		t.Errorf("returned bits hash to %#x, want %#x", got, want)
	}
}
