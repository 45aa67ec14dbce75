package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bucketRecord lays one bucket record out through WriteBucketRows, row
// i being rows[i*dim:(i+1)*dim].
func bucketRecord(indices []int, dim int, rows []float64) []byte {
	var buf bytes.Buffer
	_ = WriteBucketRows(&buf, indices, dim, func(i int) []float64 { return rows[i*dim : (i+1)*dim] }) // a bytes.Buffer does not fail
	return buf.Bytes()
}

// decodeBucket decodes a bucket record whole through the decoders the
// reducers use: BucketShape for its shape, EachBucketRow for its rows.
func decodeBucket(rec []byte) (indices []int, dim int, rows []float64, err error) {
	n, dim, err := BucketShape(rec)
	if err != nil {
		return nil, 0, nil, err
	}
	indices, rows = make([]int, 0, n), make([]float64, 0, n*dim)
	err = EachBucketRow(rec, func(idx int, row []float64) error {
		indices = append(indices, idx)
		rows = append(rows, row...)
		return nil
	})
	return indices, dim, rows, err
}

// bucketRejected is nil when BucketShape and EachBucketRow both refuse
// rec, and EachBucketRow without calling its fn.
func bucketRejected(rec []byte) error {
	if _, _, err := BucketShape(rec); err == nil {
		return errors.New("BucketShape accepted it")
	}
	called := false
	if err := EachBucketRow(rec, func(int, []float64) error { called = true; return nil }); err == nil || called {
		return errors.New("EachBucketRow accepted it")
	}
	return nil
}

// malformedBucketRecords is the failure surface of the bucket record
// decoders: wrong kind (the retired 'E' among them), truncation at
// every boundary, declared shapes that do not match the payload,
// indices outside int32, and trailing garbage.
func malformedBucketRecords() map[string][]byte {
	good := bucketRecord([]int{4, 9}, 3, []float64{1, 2, 3, 4, 5, 6})
	return map[string][]byte{
		"empty":           nil,
		"wrong kind":      append([]byte{'S'}, good[1:]...),
		"embedded kind":   append([]byte{'E'}, good[1:]...),
		"header only":     good[:1],
		"short counts":    good[:2],
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"zero points":     bucketRecord(nil, 3, nil),
		"zero dim":        bucketRecord([]int{1}, 0, nil),
		"negative index":  bucketRecord([]int{-1}, 1, []float64{0}),
		"index > int32":   bucketRecord([]int{math.MaxInt32 + 1}, 1, []float64{0}),
		"count lies":      append([]byte{'B', 0xff, 0xff, 0xff, 0x0f, 3}, good[3:]...),
		"shape > payload": {'B', 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x3f, 0, 0},
	}
}

// deltaBucketRecord is a sorted bucket whose indices take one to three
// varint bytes each, the record whose every truncation the tests cut.
func deltaBucketRecord() (indices []int, dim int, rows []float64) {
	indices = []int{3, 10, 11, 500, 501, 502, 90000}
	dim = 4
	rng := rand.New(rand.NewSource(35))
	rows = make([]float64, len(indices)*dim)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	return indices, dim, rows
}

// TestEmbedBucketRoundTrip pins the bucket record codec: every encoded
// record opens with 'B' and decodes back to the same indices (sorted or
// not) and bitwise-identical rows, including non-finite and signed-zero
// payloads.
func TestEmbedBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ n, dim int }{
		{1, 2}, {3, 8}, {64, 16}, {257, 6},
	}
	for _, s := range shapes {
		indices := make([]int, s.n)
		rows := make([]float64, s.n*s.dim)
		for i := range indices {
			indices[i] = int(rng.Int31())
		}
		for i := range rows {
			rows[i] = rng.NormFloat64()
		}
		rows[0] = math.Copysign(0, -1)
		if len(rows) > 1 {
			rows[1] = math.Inf(1)
		}
		rec := bucketRecord(indices, s.dim, rows)
		if rec[0] != 'B' {
			t.Fatalf("record opens with %q, want 'B'", rec[0])
		}
		if len(rec) != bucketRowsLen(indices, s.dim) {
			t.Fatalf("%dx%d: %d-byte record, bucketRowsLen %d", s.n, s.dim, len(rec), bucketRowsLen(indices, s.dim))
		}
		gotIdx, gotDim, gotRows, err := decodeBucket(rec)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.n, s.dim, err)
		}
		if gotDim != s.dim || !slices.Equal(gotIdx, indices) || len(gotRows) != len(rows) {
			t.Fatalf("%dx%d decoded as %d x %d (%d rows)", s.n, s.dim, len(gotIdx), gotDim, len(gotRows))
		}
		for i := range rows {
			if math.Float64bits(gotRows[i]) != math.Float64bits(rows[i]) {
				t.Fatalf("row value %d = %x, want %x", i, math.Float64bits(gotRows[i]), math.Float64bits(rows[i]))
			}
		}
	}
}

// TestEmbedBucketAppendsInPlace verifies append semantics: the record
// extends what its writer already holds without clobbering it.
func TestEmbedBucketAppendsInPlace(t *testing.T) {
	prefix := []byte{1, 2, 3}
	buf := bytes.NewBuffer(append([]byte(nil), prefix...))
	if err := WriteBucketRows(buf, []int{7}, 2, func(int) []float64 { return []float64{0.5, -0.5} }); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()
	if string(rec[:3]) != string(prefix) {
		t.Fatalf("prefix clobbered: %v", rec[:3])
	}
	if _, _, _, err := decodeBucket(rec[3:]); err != nil {
		t.Fatalf("suffix did not parse: %v", err)
	}
}

// TestBucketRowsDeltaIndicesRoundTrip checks what the delta encoding is for:
// a sorted bucket's indices cost about a byte each, and every
// truncation of the record — which can cut a varint in half — is
// rejected.
func TestBucketRowsDeltaIndicesRoundTrip(t *testing.T) {
	indices, dim, rows := deltaBucketRecord()
	rec := bucketRecord(indices, dim, rows)
	if fixed := 1 + 2 + 4*len(indices) + 8*len(rows); len(rec) >= fixed {
		t.Fatalf("record is %d bytes, no smaller than %d with fixed 4-byte indices", len(rec), fixed)
	}
	gotIdx, _, gotRows, err := decodeBucket(rec)
	if err != nil || !slices.Equal(gotIdx, indices) || !slices.Equal(gotRows, rows) {
		t.Fatalf("round trip: %v, %v (%v)", gotIdx, gotRows, err)
	}
	for cut := 0; cut < len(rec); cut++ {
		if err := bucketRejected(rec[:cut]); err != nil {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
}

// TestParseEmbedBucketRejectsMalformed walks the failure surface
// (malformedBucketRecords) through both decoders the reducers use.
func TestParseEmbedBucketRejectsMalformed(t *testing.T) {
	if _, _, _, err := decodeBucket(bucketRecord([]int{4, 9}, 3, []float64{1, 2, 3, 4, 5, 6})); err != nil {
		t.Fatalf("control record: %v", err)
	}
	for name, buf := range malformedBucketRecords() {
		if err := bucketRejected(buf); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzParseEmbedBucket drives the bucket record decoders the reducers
// use (decodeBucket) over arbitrary bytes; a nil error must imply a 'B'-led record with internally
// consistent shapes. The 'E'-led seed is a well-formed record under the
// retired embedded kind byte, which must be refused.
func FuzzParseEmbedBucket(f *testing.F) {
	f.Add(append([]byte{'E'}, bucketRecord([]int{1, 2}, 2, []float64{1, 2, 3, 4})[1:]...))
	f.Add(bucketRecord([]int{9, 2}, 2, []float64{1, 2, 3, 4}))
	f.Add([]byte{'B', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, dim, rows, err := decodeBucket(data)
		if err != nil {
			return
		}
		if data[0] != 'B' {
			t.Fatalf("accepted a record of kind %q", data[0])
		}
		if dim <= 0 || len(idx) == 0 || len(rows) != len(idx)*dim {
			t.Fatalf("accepted inconsistent bucket: %d indices, dim %d, %d row values",
				len(idx), dim, len(rows))
		}
	})
}

// bucketRowsLen is the length of the bucket record of these indices at
// dim columns, by BucketRecordLen over their varint deltas.
func bucketRowsLen(indices []int, dim int) int {
	var deltas []byte
	prev := 0
	for _, idx := range indices {
		deltas = binary.AppendVarint(deltas, int64(idx-prev))
		prev = idx
	}
	return BucketRecordLen(len(indices), dim, len(deltas))
}
