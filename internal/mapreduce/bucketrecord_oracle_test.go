package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// ParseBucketRows decodes a record WriteBucketRows lays out in one
// piece: the oracle EachBucketRow and BucketShape are held to (it was the
// reducer's decoder before rows were decoded one at a time). The
// input is untrusted: it must open with 'B', the shape is validated
// against the bytes that actually arrived before any allocation, every
// index must fit a non-negative int32, and the float payload must match
// the declared shape exactly. The returned slices are freshly allocated
// and do not alias buf.
func ParseBucketRows(buf []byte) (indices []int, dim int, rows []float64, err error) {
	fail := func(format string, args ...any) ([]int, int, []float64, error) {
		return nil, 0, nil, fmt.Errorf("mapreduce: bucket record: "+format, args...)
	}
	if len(buf) == 0 || buf[0] != bucketKind {
		return nil, 0, nil, errors.New("mapreduce: not a bucket record")
	}
	b := buf[1:]
	nu, w := binary.Uvarint(b)
	if w <= 0 {
		return fail("bad point count")
	}
	b = b[w:]
	du, w := binary.Uvarint(b)
	if w <= 0 {
		return fail("bad dimension")
	}
	b = b[w:]
	if nu == 0 || du == 0 || nu > maxFrameBody/4 || du > maxFrameBody/8 {
		return fail("shape %d x %d out of range", nu, du)
	}
	n, dim := int(nu), int(du)
	// Each index delta costs at least one byte, so the record must hold
	// n delta bytes plus the full float payload; checking against the
	// actual record length before allocating bounds both slices by the
	// bytes that really arrived.
	if need := n + 8*n*dim; len(b) < need || need/n != 1+8*dim {
		return fail("%d payload bytes for %d x %d", len(b), n, dim)
	}
	indices = make([]int, n)
	prev := int64(0)
	for i := range indices {
		delta, w := binary.Varint(b)
		if w <= 0 {
			return fail("bad index delta")
		}
		b = b[w:]
		prev += delta
		if prev < 0 || prev > math.MaxInt32 {
			return fail("index %d out of range", prev)
		}
		indices[i] = int(prev)
	}
	if len(b) != 8*n*dim {
		return fail("%d float bytes for %d x %d", len(b), n, dim)
	}
	rows = make([]float64, n*dim)
	for i := range rows {
		rows[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return indices, dim, rows, nil
}

// bucketRecordSeeds is the bucket-record corpus of this package's
// tests: well-formed records of several shapes (unsorted indices,
// signed zero, infinity, NaN), every malformed record the decoder tests
// walk, and every truncation of a delta-coded record.
func bucketRecordSeeds() [][]byte {
	seeds := [][]byte{
		bucketRecord([]int{4, 9}, 3, []float64{1, 2, 3, 4, 5, 6}),
		bucketRecord([]int{9, 2}, 2, []float64{1, 2, 3, 4}),
		bucketRecord([]int{3, 10, 11, 500, 501, 502, 90000}, 1, []float64{math.Copysign(0, -1), math.Inf(1), math.NaN(), 1, 2, 3, 4}),
		{'B', 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	malformed := malformedBucketRecords()
	names := make([]string, 0, len(malformed))
	for name := range malformed {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		seeds = append(seeds, malformed[name])
	}
	rec := bucketRecord(deltaBucketRecord())
	for cut := 0; cut <= len(rec); cut++ {
		seeds = append(seeds, rec[:cut])
	}
	return seeds
}

// FuzzEachBucketRowMatchesParse: the row-at-a-time decoder accepts and
// rejects exactly what ParseBucketRows does, reports its shape, and
// yields the same indices and the same row bits in the same order.
func FuzzEachBucketRowMatchesParse(f *testing.F) {
	for _, seed := range bucketRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, dim, rows, perr := ParseBucketRows(data)
		n, sdim, serr := BucketShape(data)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("ParseBucketRows error %v, BucketShape error %v", perr, serr)
		}
		var gotIdx []int
		var gotRows []float64
		eerr := EachBucketRow(data, func(i int, row []float64) error {
			if len(row) != dim {
				return fmt.Errorf("row of %d values at dim %d", len(row), dim)
			}
			gotIdx = append(gotIdx, i)
			gotRows = append(gotRows, row...)
			return nil
		})
		if (perr == nil) != (eerr == nil) {
			t.Fatalf("ParseBucketRows error %v, EachBucketRow error %v", perr, eerr)
		}
		if perr != nil {
			if gotIdx != nil {
				t.Fatalf("EachBucketRow called fn on a record it rejected")
			}
			return
		}
		if n != len(idx) || sdim != dim || len(gotIdx) != len(idx) || len(gotRows) != len(rows) {
			t.Fatalf("shape %d x %d and %d rows of %d values, ParseBucketRows %d x %d", n, sdim, len(gotIdx), len(gotRows), len(idx), dim)
		}
		for i := range idx {
			if gotIdx[i] != idx[i] {
				t.Fatalf("index %d = %d, ParseBucketRows %d", i, gotIdx[i], idx[i])
			}
		}
		for i := range rows {
			if math.Float64bits(gotRows[i]) != math.Float64bits(rows[i]) {
				t.Fatalf("value %d bits %x, ParseBucketRows %x", i, math.Float64bits(gotRows[i]), math.Float64bits(rows[i]))
			}
		}
		// Written back, the record is canonical (its varints minimal), so
		// its length is bucketRowsLen's and it decodes to the same.
		var buf bytes.Buffer
		if err := WriteBucketRows(&buf, idx, dim, func(i int) []float64 { return rows[i*dim : (i+1)*dim] }); err != nil {
			t.Fatal(err)
		}
		if got := bucketRowsLen(idx, dim); got != buf.Len() {
			t.Fatalf("bucketRowsLen %d for a %d-byte record", got, buf.Len())
		}
		backIdx, backDim, backRows, err := ParseBucketRows(buf.Bytes())
		if err != nil || backDim != dim || !slices.Equal(backIdx, idx) || len(backRows) != len(rows) {
			t.Fatalf("written record decodes to %d x %d (%v)", len(backIdx), backDim, err)
		}
		for i := range rows {
			if math.Float64bits(backRows[i]) != math.Float64bits(rows[i]) {
				t.Fatalf("written value %d bits %x, want %x", i, math.Float64bits(backRows[i]), math.Float64bits(rows[i]))
			}
		}
	})
}
